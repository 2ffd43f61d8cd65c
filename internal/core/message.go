// Package core implements the protocol machinery shared by the paper's
// two probe protocols: the message vocabulary, the bounded-retransmission
// probe cycle (Fig. 1 of the paper), and the interfaces through which the
// SAPP and DCPP engines plug in.
//
// Engines are pure, single-threaded state machines driven through the Env
// interface. The same engine code runs under the discrete-event simulator
// (internal/simrun) and on real UDP sockets (internal/fleet).
package core

import (
	"sync"
	"time"

	"presence/internal/ident"
)

// Message is the sealed set of protocol messages.
type Message interface{ isMessage() }

// ProbeMsg is the "are you still there?" probe a control point sends to a
// device. Cycle numbers a probe cycle (monotonically increasing per CP);
// Attempt numbers the transmission within the cycle (0 = first probe,
// 1..MaxRetransmits = retransmissions). The pair lets engines match
// replies under reordering, duplication and loss.
type ProbeMsg struct {
	From    ident.NodeID
	Cycle   uint32
	Attempt uint8
}

func (ProbeMsg) isMessage() {}

// ReplyMsg is the device's answer to a probe. Cycle and Attempt echo the
// probe being answered; Payload is protocol specific.
type ReplyMsg struct {
	From    ident.NodeID
	Cycle   uint32
	Attempt uint8
	Payload Payload
}

func (ReplyMsg) isMessage() {}

// ByeMsg announces a graceful leave of the sending device ("normally,
// when a node goes off-line, it informs other nodes by sending a
// bye-message").
type ByeMsg struct {
	From ident.NodeID
}

func (ByeMsg) isMessage() {}

// LeaveNotice disseminates a detected device absence across the CP
// overlay built from the SAPP reply's last-two-probers field. Origin is
// the CP that detected the absence, Seq de-duplicates notices and TTL
// bounds flooding.
type LeaveNotice struct {
	Device ident.NodeID
	Origin ident.NodeID
	Seq    uint32
	TTL    uint8
}

func (LeaveNotice) isMessage() {}

// AnnounceMsg is a device's periodic presence announcement (UPnP-style
// ssdp:alive): the receiver may consider the device present for MaxAge.
// The paper's probe protocols complement these announcements — max-age
// expiry alone detects absence far too slowly (minutes, not the
// required "order of one second").
type AnnounceMsg struct {
	From   ident.NodeID
	MaxAge time.Duration
}

func (AnnounceMsg) isMessage() {}

// Payload is the sealed set of protocol-specific reply payloads.
type Payload interface{ isPayload() }

// SAPPReply carries the device's inflated probe counter pc and the ids of
// the last two distinct probing CPs (the overlay hint).
type SAPPReply struct {
	ProbeCount  uint64
	LastProbers [2]ident.NodeID
}

func (SAPPReply) isPayload() {}

// DCPPReply carries the wait the probing CP must observe before its next
// probe cycle: nt' − t in the paper's notation.
type DCPPReply struct {
	Wait time.Duration
}

func (DCPPReply) isPayload() {}

// EmptyReply is the payload of the naive baseline protocol, which adapts
// nothing.
type EmptyReply struct{}

func (EmptyReply) isPayload() {}

// Message pooling
//
// The probe/reply exchange is the simulator's hottest message path:
// passing ProbeMsg/ReplyMsg values through the Message interface boxes a
// fresh heap object per send, and reply payloads box a second one. The
// engines therefore send *pooled pointer forms* (*ProbeMsg, *ReplyMsg
// with pointer payloads), acquired here and recycled by whichever runtime
// finishes delivering them (the simulated network after the handler
// returns, the UDP runtime after encoding).
//
// Ownership contract: passing a pooled message to Env.Send transfers
// ownership to the runtime. Receivers (handlers, policies, listeners)
// may read a pooled message and its payload only until they return; code
// that needs the data longer must copy the fields out. Pointer and value
// forms are interchangeable on the wire and in type switches — consumers
// accept both.

var (
	probePool = sync.Pool{New: func() any { return new(ProbeMsg) }}
	replyPool = sync.Pool{New: func() any { return new(ReplyMsg) }}
	sappPool  = sync.Pool{New: func() any { return new(SAPPReply) }}
	dcppPool  = sync.Pool{New: func() any { return new(DCPPReply) }}
)

// AcquireProbe returns a pooled probe message. Ownership passes to
// Env.Send; the delivering runtime recycles it.
func AcquireProbe(from ident.NodeID, cycle uint32, attempt uint8) *ProbeMsg {
	m := probePool.Get().(*ProbeMsg)
	m.From, m.Cycle, m.Attempt = from, cycle, attempt
	return m
}

// AcquireReply returns a pooled reply message carrying the given payload.
// Pooled payloads (from AcquireSAPPReply/AcquireDCPPReply) are recycled
// together with the reply.
func AcquireReply(from ident.NodeID, cycle uint32, attempt uint8, p Payload) *ReplyMsg {
	m := replyPool.Get().(*ReplyMsg)
	m.From, m.Cycle, m.Attempt, m.Payload = from, cycle, attempt, p
	return m
}

// AcquireSAPPReply returns a pooled SAPP reply payload.
func AcquireSAPPReply(pc uint64, last [2]ident.NodeID) *SAPPReply {
	p := sappPool.Get().(*SAPPReply)
	p.ProbeCount, p.LastProbers = pc, last
	return p
}

// AcquireDCPPReply returns a pooled DCPP reply payload.
func AcquireDCPPReply(wait time.Duration) *DCPPReply {
	p := dcppPool.Get().(*DCPPReply)
	p.Wait = wait
	return p
}

// Recycle returns pooled message forms (and their pooled payloads) to
// their pools; value forms and foreign types are ignored. After Recycle
// the message must not be touched.
func (m *ProbeMsg) Recycle() {
	*m = ProbeMsg{}
	probePool.Put(m)
}

// Recycle returns the reply and any pooled payload to their pools.
func (m *ReplyMsg) Recycle() {
	switch p := m.Payload.(type) {
	case *SAPPReply:
		*p = SAPPReply{}
		sappPool.Put(p)
	case *DCPPReply:
		*p = DCPPReply{}
		dcppPool.Put(p)
	}
	*m = ReplyMsg{}
	replyPool.Put(m)
}

// ClonePooled returns an independent pooled copy, for runtimes that
// duplicate in-flight messages (the simulated network's DuplicateP).
func (m *ProbeMsg) ClonePooled() any {
	c := probePool.Get().(*ProbeMsg)
	*c = *m
	return c
}

// ClonePooled deep-copies the reply, including a pooled payload.
func (m *ReplyMsg) ClonePooled() any {
	c := replyPool.Get().(*ReplyMsg)
	*c = *m
	switch p := m.Payload.(type) {
	case *SAPPReply:
		c.Payload = AcquireSAPPReply(p.ProbeCount, p.LastProbers)
	case *DCPPReply:
		c.Payload = AcquireDCPPReply(p.Wait)
	}
	return c
}

// Recycle returns a pooled message form to its pool. It accepts any
// message and ignores plain value forms, so runtimes can call it
// unconditionally after finishing a delivery.
func Recycle(msg Message) {
	if r, ok := msg.(interface{ Recycle() }); ok {
		r.Recycle()
	}
}

// Flatten converts a pooled message form into its plain value form
// (pointer payloads included), leaving the pooled original untouched.
// Test doubles and encoders use it to keep working with value semantics.
func Flatten(msg Message) Message {
	switch m := msg.(type) {
	case *ProbeMsg:
		return *m
	case *ReplyMsg:
		v := *m
		switch p := m.Payload.(type) {
		case *SAPPReply:
			v.Payload = *p
		case *DCPPReply:
			v.Payload = *p
		}
		return v
	default:
		return msg
	}
}

// Env is an engine's window on the world, implemented by the simulation
// runtime (virtual time, simulated network) and the UDP runtime (wall
// clock, sockets).
//
// Each engine owns exactly one alarm slot: SetAlarm replaces any pending
// expiry, and the runtime calls the engine's OnAlarm when it fires. The
// protocols are designed to need at most one outstanding timer.
type Env interface {
	// Now returns the current time as an offset from the runtime's epoch.
	Now() time.Duration
	// Send transmits a message. Delivery is best-effort: messages may be
	// lost, reordered or duplicated.
	Send(to ident.NodeID, msg Message)
	// SetAlarm schedules the engine's OnAlarm callback at time at,
	// replacing any pending alarm.
	SetAlarm(at time.Duration)
	// StopAlarm cancels any pending alarm.
	StopAlarm()
}
