// Package ident defines node identities shared by the protocol core and
// the transport substrates.
//
// It is a leaf package: both internal/core (the paper's contribution) and
// internal/simnet / internal/fleet (the substrates) need a common node
// address type, and neither may import the other.
package ident

import "strconv"

// NodeID identifies a node (device or control point) in the network.
// The zero value is reserved and never assigned to a live node.
type NodeID uint32

// None is the reserved invalid node id.
const None NodeID = 0

// Broadcast is the reserved address delivering to every attached node
// (the simulated stand-in for UPnP's SSDP multicast group). It is never
// assigned to a node.
const Broadcast NodeID = ^NodeID(0)

// Valid reports whether the id denotes an assignable node identity.
func (id NodeID) Valid() bool { return id != None }

// String renders the id as "n<number>", or "none" for the zero value.
func (id NodeID) String() string {
	if id == None {
		return "none"
	}
	return "n" + strconv.FormatUint(uint64(id), 10)
}

// Allocator hands out unique node ids starting at 1. The zero value is
// ready to use. Allocator is not safe for concurrent use; in the
// simulation runtime all allocation happens on the single event-loop
// goroutine, and the UDP runtime assigns ids from configuration.
type Allocator struct {
	next NodeID
}

// Next returns a fresh, never-before-returned id.
func (a *Allocator) Next() NodeID {
	a.next++
	return a.next
}
