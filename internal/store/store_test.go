package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The contract suite: every Store implementation must pass the same
// round-trip, replacement, idempotent-replay and deletion semantics. The
// file store additionally rejects torn and partial state (tested below).
func runContract(t *testing.T, open func(t *testing.T) Store) {
	t.Helper()

	placements := []PlacementRecord{
		{VM: 3, Customer: "acme", Server: 7},
		{VM: 9, Customer: "blue", Server: 7},
	}
	leases := []LeaseRecord{
		{VM: 11, DemandCPU: 1, DemandMemMB: 512, DemandBW: 80, Expires: 42 * time.Minute},
		{VM: 12, DemandBW: 10, Expires: 50 * time.Minute},
	}
	peers := []PeerRecord{{IdHi: 1, IdLo: 2, Addr: 3}, {IdHi: 4, IdLo: 5, Addr: 6}}

	t.Run("LoadBeforeSave", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		_, ok, err := s.Load(7)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if ok {
			t.Fatalf("Load before any save reported state")
		}
	})

	t.Run("RoundTrip", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.SavePlacements(7, placements); err != nil {
			t.Fatalf("SavePlacements: %v", err)
		}
		if err := s.SaveLeases(7, leases); err != nil {
			t.Fatalf("SaveLeases: %v", err)
		}
		if err := s.SavePeers(7, peers); err != nil {
			t.Fatalf("SavePeers: %v", err)
		}
		st, ok, err := s.Load(7)
		if err != nil || !ok {
			t.Fatalf("Load: ok=%v err=%v", ok, err)
		}
		if !reflect.DeepEqual(st.Placements, placements) {
			t.Fatalf("placements round-trip: got %+v want %+v", st.Placements, placements)
		}
		if !reflect.DeepEqual(st.Leases, leases) {
			t.Fatalf("leases round-trip: got %+v want %+v", st.Leases, leases)
		}
		if !reflect.DeepEqual(st.Peers, peers) {
			t.Fatalf("peers round-trip: got %+v want %+v", st.Peers, peers)
		}
	})

	t.Run("NoAliasing", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		in := append([]LeaseRecord(nil), leases...)
		if err := s.SaveLeases(1, in); err != nil {
			t.Fatalf("SaveLeases: %v", err)
		}
		in[0].VM = 999 // caller mutates after save
		st, _, err := s.Load(1)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if st.Leases[0].VM != leases[0].VM {
			t.Fatalf("store aliased the caller's slice")
		}
		st.Leases[0].VM = 888 // caller mutates the loaded copy
		again, _, _ := s.Load(1)
		if again.Leases[0].VM != leases[0].VM {
			t.Fatalf("store aliased the loaded slice")
		}
	})

	// Releasing a lease is persisted as a save of the shrunken table;
	// replaying the same save (a retried release after an ack loss) must
	// land on the same state, and releasing a lease that is already gone
	// must not resurrect anything.
	t.Run("IdempotentReleaseReplay", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.SaveLeases(2, leases); err != nil {
			t.Fatalf("SaveLeases: %v", err)
		}
		released := leases[1:] // lease for VM 11 released
		for i := 0; i < 3; i++ {
			if err := s.SaveLeases(2, released); err != nil {
				t.Fatalf("SaveLeases replay %d: %v", i, err)
			}
			st, _, err := s.Load(2)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !reflect.DeepEqual(st.Leases, released) {
				t.Fatalf("replay %d diverged: got %+v want %+v", i, st.Leases, released)
			}
		}
	})

	t.Run("EmptySectionOverwrites", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.SaveLeases(3, leases); err != nil {
			t.Fatalf("SaveLeases: %v", err)
		}
		if err := s.SaveLeases(3, nil); err != nil {
			t.Fatalf("SaveLeases(nil): %v", err)
		}
		st, ok, err := s.Load(3)
		if err != nil || !ok {
			t.Fatalf("Load: ok=%v err=%v", ok, err)
		}
		if len(st.Leases) != 0 {
			t.Fatalf("empty save did not clear section: %+v", st.Leases)
		}
	})

	t.Run("PerNodeIsolation", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.SaveLeases(4, leases); err != nil {
			t.Fatalf("SaveLeases: %v", err)
		}
		if _, ok, _ := s.Load(5); ok {
			t.Fatalf("node 5 sees node 4's state")
		}
	})

	t.Run("Delete", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.SaveLeases(6, leases); err != nil {
			t.Fatalf("SaveLeases: %v", err)
		}
		if err := s.Delete(6); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, ok, _ := s.Load(6); ok {
			t.Fatalf("state survived Delete")
		}
		if err := s.Delete(6); err != nil {
			t.Fatalf("Delete of absent node: %v", err)
		}
	})
}

func TestMemStoreContract(t *testing.T) {
	runContract(t, func(t *testing.T) Store { return NewMem() })
}

func TestFileStoreContract(t *testing.T) {
	runContract(t, func(t *testing.T) Store {
		s, err := NewFile(t.TempDir())
		if err != nil {
			t.Fatalf("NewFile: %v", err)
		}
		return s
	})
}

// sectionFile finds the single on-disk file for (node, section) so the
// corruption tests can vandalise it.
func sectionFile(t *testing.T, dir string, node int, sec string) string {
	t.Helper()
	p := filepath.Join(dir, "n000007-"+sec)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("section file missing: %v", err)
	}
	return p
}

func TestFileStoreRejectsTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFile(dir)
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	leases := []LeaseRecord{{VM: 11, DemandBW: 80, Expires: time.Minute}}
	if err := s.SaveLeases(7, leases); err != nil {
		t.Fatalf("SaveLeases: %v", err)
	}
	p := sectionFile(t, dir, 7, "leases")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("read section: %v", err)
	}

	// Truncated payload: the header promises more bytes than exist.
	if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, _, err := s.Load(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated section: got err=%v, want ErrCorrupt", err)
	}

	// Flipped payload byte: length fine, checksum wrong.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0xff
	if err := os.WriteFile(p, flipped, 0o644); err != nil {
		t.Fatalf("flip: %v", err)
	}
	if _, _, err := s.Load(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped section: got err=%v, want ErrCorrupt", err)
	}

	// Garbage header.
	if err := os.WriteFile(p, []byte("not a section"), 0o644); err != nil {
		t.Fatalf("garbage: %v", err)
	}
	if _, _, err := s.Load(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage section: got err=%v, want ErrCorrupt", err)
	}

	// Unsupported version byte.
	versioned := append([]byte(nil), data...)
	versioned[4] = 99
	if err := os.WriteFile(p, versioned, 0o644); err != nil {
		t.Fatalf("version: %v", err)
	}
	if _, _, err := s.Load(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future-versioned section: got err=%v, want ErrCorrupt", err)
	}

	// Restoring the original bytes makes the section readable again — the
	// checksum is a property of the bytes, not a session secret.
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatalf("restore: %v", err)
	}
	st, ok, err := s.Load(7)
	if err != nil || !ok {
		t.Fatalf("restored section: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(st.Leases, leases) {
		t.Fatalf("restored section diverged: %+v", st.Leases)
	}
}

// A crash between sections leaves the other sections intact: vandalising
// the lease file must not take down placements.
func TestFileStorePartialStateIsolated(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFile(dir)
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	if err := s.SavePlacements(7, []PlacementRecord{{VM: 1, Customer: "acme", Server: 7}}); err != nil {
		t.Fatalf("SavePlacements: %v", err)
	}
	if err := s.SaveLeases(7, []LeaseRecord{{VM: 2, Expires: time.Minute}}); err != nil {
		t.Fatalf("SaveLeases: %v", err)
	}
	p := sectionFile(t, dir, 7, "leases")
	if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
		t.Fatalf("vandalise: %v", err)
	}
	// The whole load fails loudly — a rejoin must not silently proceed
	// with placements but no leases.
	if _, _, err := s.Load(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial state: got err=%v, want ErrCorrupt", err)
	}
}

// encodeSection frames a payload as writeSection does: magic, version,
// length and checksum ahead of it.
func encodeSection(payload []byte) []byte {
	buf := make([]byte, headerLen, headerLen+len(payload))
	copy(buf, fileMagic)
	buf[4] = fileVersion
	binary.LittleEndian.PutUint32(buf[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[9:], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// FuzzFileStoreLoad writes arbitrary bytes as one of a node's section files
// and loads the node. Whatever the bytes, Load either refuses them with
// ErrCorrupt and no state at all — never a half-restored node — or returns a
// NodeState that a save and a second load give back unchanged; it never
// panics.
func FuzzFileStoreLoad(f *testing.F) {
	valid := encodeSection([]byte(`[{"VM":11,"DemandCPU":1,"DemandMemMB":512,"DemandBW":80,"Expires":60000000000}]`))
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-2] ^= 0xff
	f.Add(uint8(1), valid)
	f.Add(uint8(1), valid[:len(valid)-3])
	f.Add(uint8(1), badCRC)
	f.Add(uint8(0), encodeSection([]byte(`[{"VM":"three","Customer":"acme"}]`)))
	f.Add(uint8(2), encodeSection([]byte(`[{"IdHi":1,"IdLo":2,"Addr":3}`)))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		const node = 7
		s, err := NewFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sec := []section{secPlacements, secLeases, secPeers}[int(which)%3]
		if err := os.WriteFile(s.path(node, sec), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, ok, err := s.Load(node)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load of a %s section: %v, want ErrCorrupt", sec, err)
			}
			if ok || !reflect.DeepEqual(st, NodeState{}) {
				t.Fatalf("a refused %s section restored ok=%v %+v", sec, ok, st)
			}
			return
		}
		if !ok || st.Server != node {
			t.Fatalf("a readable %s section loaded as ok=%v server %d", sec, ok, st.Server)
		}
		switch sec {
		case secPlacements:
			err = s.SavePlacements(node, st.Placements)
		case secLeases:
			err = s.SaveLeases(node, st.Leases)
		case secPeers:
			err = s.SavePeers(node, st.Peers)
		}
		if err != nil {
			t.Fatalf("saving what a %s section loaded: %v", sec, err)
		}
		again, _, err := s.Load(node)
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("a %s section saved back loads as %+v (err %v), first load %+v", sec, again, err, st)
		}
	})
}
