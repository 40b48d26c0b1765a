package store

import (
	"reflect"
	"testing"
	"time"
)

// TestMemStoreContract pins the store's round-trip, wholesale-replacement,
// no-aliasing and idempotent-replay semantics.
func TestMemStoreContract(t *testing.T) {
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
		s := NewMem()
		_, ok, err := s.Load(7)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if ok {
			t.Fatalf("Load before any save reported state")
		}
	})

	t.Run("RoundTrip", func(t *testing.T) {
		s := NewMem()
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
		s := NewMem()
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
		s := NewMem()
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
		s := NewMem()
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
		s := NewMem()
		if err := s.SaveLeases(4, leases); err != nil {
			t.Fatalf("SaveLeases: %v", err)
		}
		if _, ok, _ := s.Load(5); ok {
			t.Fatalf("node 5 sees node 4's state")
		}
	})
}
