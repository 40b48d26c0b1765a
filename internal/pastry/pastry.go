// Package pastry implements the Pastry structured peer-to-peer overlay
// (Rowstron & Druschel, Middleware 2001) that v-Bundle builds on.
//
// Every server in the datacenter runs one Pastry node. Node identifiers are
// 128-bit values on a circular space; messages addressed to a key are routed,
// in O(log N) hops, to the live node whose identifier is numerically closest
// to the key. Each node maintains three structures:
//
//   - a routing table with rows indexed by shared-prefix length and columns
//     indexed by the next identifier digit (2^b columns of width b bits);
//   - a leaf set of the L/2 numerically closest nodes on either side, used
//     for the final routing step and for repair;
//   - a neighborhood set of the |M| closest nodes by network proximity,
//     which v-Bundle's placement uses to spill boot requests to physically
//     nearby servers (paper §II.B).
//
// The implementation is asynchronous and message-driven over a simulated
// network: each routing hop is one simnet message, so experiments observe
// realistic hop counts, latencies, and per-node message loads (Fig. 14/15,
// Table I).
package pastry

import (
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/simnet"
)

// Config carries the tunable parameters of a Pastry node. The zero value
// selects the defaults used throughout the paper's experiments (b = 4,
// L = 16, |M| = 16).
type Config struct {
	// B is the digit width in bits; routing tables have 2^B columns.
	// Must be one of 1, 2 or 4 (core.NewOverlay returns an error for any
	// other). Defaults to 4.
	B int
	// LeafSize is the total leaf set size L; L/2 nodes are kept on each
	// side of the local identifier. Defaults to 16.
	LeafSize int
	// NeighborhoodSize is |M|, the size of the proximity-based
	// neighborhood set. Defaults to 16.
	NeighborhoodSize int
}

// Maintenance and failure detection.
const (
	// maintenanceInterval is the period of leaf-set exchange and liveness
	// probing, in virtual time.
	maintenanceInterval = 30 * time.Second
	// probeTimeout is how long a node waits for a pong before counting the
	// probe as failed.
	probeTimeout = 3 * time.Second
	// probesPerRound is how many leaf-set members are liveness-probed per
	// maintenance round.
	probesPerRound = 3
	// probeRetries is how many consecutive probe failures (re-probed
	// back-to-back) are required before a peer is declared dead; any
	// message from the peer resets the count. On a network losing 30% of
	// messages a single ping+pong round trip fails half the time, so real
	// tolerance needs several retries.
	probeRetries = 8
)

func (c Config) withDefaults() Config {
	if c.B == 0 {
		c.B = 4
	}
	if c.LeafSize == 0 {
		c.LeafSize = 16
	}
	if c.NeighborhoodSize == 0 {
		c.NeighborhoodSize = 16
	}
	return c
}

// rows returns the number of routing-table rows for this digit width.
func (c Config) rows() int { return ids.Bits / c.B }

// cols returns the number of routing-table columns (2^B).
func (c Config) cols() int { return 1 << uint(c.B) }

// NodeHandle names a remote node: its ring identifier plus its network
// address. Handles are small values passed by copy.
type NodeHandle struct {
	Id   ids.Id
	Addr simnet.Addr
}

// NoHandle is the explicit "no node" sentinel used for empty routing-table
// slots and for NextHop's deliver-locally result. The zero NodeHandle is NOT
// a sentinel: identifier zero at address zero is a legitimate node (the
// hierarchy assigner gives server 0 exactly that handle).
var NoHandle = NodeHandle{Addr: simnet.Nowhere}

// IsNil reports whether the handle is the NoHandle sentinel (or otherwise
// refers to no addressable node).
func (h NodeHandle) IsNil() bool { return h.Addr < 0 }

// handleWireBytes approximates a serialized NodeHandle (16-byte id plus
// address) for traffic accounting.
const handleWireBytes = 20

// RouteInfo describes how a delivered message travelled.
type RouteInfo struct {
	// Hops is the number of overlay forwarding steps taken.
	Hops int
	// Source is the node that originated the message.
	Source NodeHandle
}

// App is the interface applications (Scribe, v-Bundle placement) implement
// to receive overlay up-calls. All methods run on the simulation event loop.
type App interface {
	// Deliver is invoked on the node whose identifier is numerically
	// closest to the message key.
	Deliver(key ids.Id, payload simnet.Message, info RouteInfo)
	// Forward is invoked on every intermediate node before the message is
	// forwarded to next. Returning false consumes the message (it is not
	// forwarded further); Scribe uses this to graft multicast-tree joins.
	Forward(key ids.Id, payload simnet.Message, next NodeHandle) bool
	// HandleDirect is invoked for point-to-point messages sent with
	// SendDirect, outside key-based routing.
	HandleDirect(from NodeHandle, payload simnet.Message)
}

// BaseApp is a no-op App implementation that concrete applications can embed
// to pick up default behaviour for up-calls they do not use.
type BaseApp struct{}

// Deliver implements App; it discards the message.
func (BaseApp) Deliver(ids.Id, simnet.Message, RouteInfo) {}

// Forward implements App; it lets routing continue.
func (BaseApp) Forward(ids.Id, simnet.Message, NodeHandle) bool { return true }

// HandleDirect implements App; it discards the message.
func (BaseApp) HandleDirect(NodeHandle, simnet.Message) {}

var _ App = BaseApp{}
