package fleet

import (
	"fmt"
	"net"
	"net/netip"
	"time"
)

// PacketConn is the packet transport one shard owns: the subset of
// *net.UDPConn the shard event loop actually uses, expressed as an
// interface so the same fleet can run over real sockets (production,
// the loopback scale harness) or a deterministic in-memory network
// (internal/memnet, driven by the conformance harness with injected
// loss, delay, duplication and reordering).
//
// The contract mirrors UDP sockets:
//
//   - ReadFromUDPAddrPort blocks until a datagram arrives, the read
//     deadline passes (returning a net.Error with Timeout() true), or
//     the conn is closed (any other error).
//   - WriteToUDPAddrPort is best-effort and non-blocking; the network
//     may drop, reorder or duplicate the datagram.
//   - The buffer passed to either call is owned by the caller and may
//     be reused immediately after the call returns; implementations
//     must copy what they keep.
type PacketConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	SetReadDeadline(t time.Time) error
	// LocalAddrPort returns the conn's bound address, in a form other
	// endpoints of the same transport can send to.
	LocalAddrPort() netip.AddrPort
	Close() error
}

// Datagram is one packet of a batch I/O call.
type Datagram struct {
	// Buf is the packet payload. Callers of ReadBatch pass it with the
	// receivable capacity as its length; implementations re-slice it to
	// the received size on return. WriteBatch sends Buf as is.
	Buf []byte
	// Addr is the packet's source (after ReadBatch) or destination
	// (for WriteBatch).
	Addr netip.AddrPort
}

// BatchPacketConn is the batched extension of PacketConn: many
// datagrams move per call, so a shard event loop under load pays one
// transport call (on Linux, one recvmmsg/sendmmsg syscall) per burst
// instead of one per packet. A PacketConn that also implements this
// interface is used in batch mode automatically; any other PacketConn
// is adapted by a loop-over-single-datagram fallback
// (Config.ForceSingleDatagram forces that fallback, for measuring the
// batching win and for batch/single equivalence tests).
//
// The contract extends the PacketConn one:
//
//   - ReadBatch blocks like ReadFromUDPAddrPort (first datagram,
//     read deadline, or close) and then fills as many further slots as
//     are readable without blocking. It returns the number of
//     datagrams filled; each filled slot's Buf is re-sliced to the
//     packet size and its Addr set to the source.
//   - WriteBatch transmits dgs[i].Buf to dgs[i].Addr in order,
//     best-effort like WriteToUDPAddrPort. It returns the number of
//     datagrams accepted; when it stops short, the error refers to
//     dgs[n] (the caller may skip it and retry from n+1).
//   - Buffers are caller-owned either way, exactly as for PacketConn.
type BatchPacketConn interface {
	PacketConn
	ReadBatch(dgs []Datagram) (int, error)
	WriteBatch(dgs []Datagram) (int, error)
}

// Transport opens one PacketConn per shard. Implementations must hand
// out distinct addresses per call (shard sockets demultiplex by
// address, exactly like SO_REUSEPORT-less UDP).
type Transport interface {
	Listen(shard int) (PacketConn, error)
}

// singleConn adapts any plain PacketConn to BatchPacketConn by looping
// over single-datagram calls: the portable fallback (and, forced, the
// baseline the batching win is measured against). ReadBatch moves
// exactly one datagram per call; WriteBatch pays one write call per
// datagram.
type singleConn struct {
	PacketConn
}

func (c singleConn) ReadBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	n, from, err := c.ReadFromUDPAddrPort(dgs[0].Buf)
	if err != nil {
		return 0, err
	}
	dgs[0].Buf = dgs[0].Buf[:n]
	dgs[0].Addr = from
	return 1, nil
}

func (c singleConn) WriteBatch(dgs []Datagram) (int, error) {
	for i := range dgs {
		if _, err := c.WriteToUDPAddrPort(dgs[i].Buf, dgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// batchConn returns the batch view of conn: conn itself when it
// implements the batch interface (and single mode is not forced), the
// fallback adapter otherwise. The second result reports whether the
// single-datagram fallback is in use, which switches the shard's
// syscall accounting to per-packet.
func batchConn(conn PacketConn, forceSingle bool) (BatchPacketConn, bool) {
	if bc, ok := conn.(BatchPacketConn); ok && !forceSingle {
		return bc, false
	}
	return singleConn{conn}, true
}

// TransportFunc adapts a function to the Transport interface, e.g.
//
//	fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })
//
// for an internal/memnet network.
type TransportFunc func(shard int) (PacketConn, error)

// Listen implements Transport.
func (f TransportFunc) Listen(shard int) (PacketConn, error) { return f(shard) }

// udpTransport is the default Transport: one kernel UDP socket per
// shard, bound to the configured address.
type udpTransport struct {
	addr *net.UDPAddr
}

// socketBuffer is the kernel read/write buffer size requested per shard
// socket, best effort (the OS may clamp it): deep enough to absorb a
// timer cascade's burst of replies while the loop is busy.
const socketBuffer = 4 << 20

func (t udpTransport) Listen(shard int) (PacketConn, error) {
	conn, err := net.ListenUDP("udp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d listen: %w", shard, err)
	}
	conn.SetReadBuffer(socketBuffer)  //nolint:errcheck // best effort
	conn.SetWriteBuffer(socketBuffer) //nolint:errcheck // best effort
	// newUDPBatchConn is platform-specific: recvmmsg/sendmmsg on Linux
	// (transport_linux.go), the plain conn elsewhere
	// (transport_fallback.go) — the shard then adapts it with the
	// single-datagram loop.
	return newUDPBatchConn(udpPacketConn{conn}), nil
}

// reusePortTransport is the multi-core Transport: every shard socket
// binds the *same* UDP port with SO_REUSEPORT, so the kernel spreads
// inbound datagrams across the shard sockets by flow hash — receive
// load fans out across cores in the kernel instead of serializing on
// one socket's lock and buffer. The first shard resolves the concrete
// address (the configured one, or a kernel-chosen port for ":0"); every
// later shard binds that address verbatim, joining the group. Used when
// Config.ReusePort is set and the platform supports it; New falls back
// to udpTransport otherwise. Listen calls are sequential (New's loop),
// so bound needs no lock.
type reusePortTransport struct {
	addr  *net.UDPAddr
	bound string // concrete shared address after the first Listen
}

func (t *reusePortTransport) Listen(shard int) (PacketConn, error) {
	target := t.addr.String()
	if t.bound != "" {
		target = t.bound
	}
	conn, err := listenReusePort(target)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d reuseport listen %s: %w", shard, target, err)
	}
	if t.bound == "" {
		t.bound = conn.LocalAddr().String()
	}
	conn.SetReadBuffer(socketBuffer)  //nolint:errcheck // best effort
	conn.SetWriteBuffer(socketBuffer) //nolint:errcheck // best effort
	return newUDPBatchConn(udpPacketConn{conn}), nil
}

// udpPacketConn adapts *net.UDPConn to PacketConn (everything matches
// except LocalAddrPort).
type udpPacketConn struct {
	*net.UDPConn
}

// LocalAddrPort returns the socket's bound address, unmapped so it can
// be dialled from plain IPv4 sockets.
func (c udpPacketConn) LocalAddrPort() netip.AddrPort {
	ap := c.LocalAddr().(*net.UDPAddr).AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// ResolveUDPAddrPort resolves an address like "127.0.0.1:9300" (or a
// hostname) to a netip.AddrPort, the address form the UDP send paths
// use.
func ResolveUDPAddrPort(addr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("fleet: resolve %q: %w", addr, err)
	}
	ap := ua.AddrPort()
	if !ap.IsValid() {
		return netip.AddrPort{}, fmt.Errorf("fleet: %q resolves to no usable UDP address", addr)
	}
	// Unmap 4-in-6 forms (::ffff:127.0.0.1): plain IPv4 sockets reject
	// mapped destinations.
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}
