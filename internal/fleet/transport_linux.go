//go:build linux && (amd64 || arm64)

package fleet

// Linux batch transport: one recvmmsg(2)/sendmmsg(2) syscall moves a
// whole burst of datagrams, so a loaded shard pays ~1/batch of the
// syscall cost per packet. The build tag also pins 64-bit layouts: the
// mmsghdr stride below (msghdr + uint32 + 4 bytes padding = 64 bytes)
// matches the kernel's struct on amd64/arm64 but not on 32-bit ABIs,
// which take the portable fallback instead.
//
// The raw syscalls integrate with the Go netpoller through
// syscall.RawConn: the fd stays in non-blocking mode, EAGAIN parks the
// goroutine in the poller, and SetReadDeadline applies to the parked
// wait exactly as it does to ReadFromUDPAddrPort.

import (
	"net"
	"net/netip"
	"strconv"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit ABIs.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// udpBatchConn implements BatchPacketConn over a kernel UDP socket.
// The header/iovec/sockaddr arrays are lazily sized to the caller's
// batch and reused; after warm-up no call allocates.
//
// Reads and writes both run on one goroutine (the shard event loop, or
// the caller of runOn's inline branch), matching how the fleet drives
// it, so the two scratch sets need no locking.
type udpBatchConn struct {
	udpPacketConn
	raw syscall.RawConn

	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrInet6

	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames []syscall.RawSockaddrInet6

	// zoneNames/zoneIDs cache IPv6 scope-id ↔ zone-name lookups so
	// link-local traffic keeps its zone (as *net.UDPConn does) without
	// an interface lookup per packet. Reads and writes stay on the
	// shard's loop, and the two caches are per-direction, so no locking
	// is needed.
	zoneNames map[uint32]string
	zoneIDs   map[string]uint32
}

func newUDPBatchConn(c udpPacketConn) PacketConn {
	raw, err := c.SyscallConn()
	if err != nil {
		return c // no raw access: the portable fallback still works
	}
	return &udpBatchConn{udpPacketConn: c, raw: raw}
}

// ReadBatch performs one recvmmsg per readable burst: it parks in the
// netpoller until the socket is readable (or the read deadline fires),
// then drains up to len(dgs) datagrams in a single syscall.
func (c *udpBatchConn) ReadBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	if len(c.rhdrs) < len(dgs) {
		c.rhdrs = make([]mmsghdr, len(dgs))
		c.riovs = make([]syscall.Iovec, len(dgs))
		c.rnames = make([]syscall.RawSockaddrInet6, len(dgs))
	}
	for i := range dgs {
		c.riovs[i].Base = &dgs[i].Buf[0]
		c.riovs[i].SetLen(len(dgs[i].Buf))
		c.rhdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&c.rnames[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     &c.riovs[i],
			Iovlen:  1,
		}}
	}
	var (
		n     int
		operr syscall.Errno
	)
	err := c.raw.Read(func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.rhdrs[0])), uintptr(len(dgs)),
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN || errno == syscall.EINTR {
			return false // park in the poller until readable
		}
		n, operr = int(r), errno
		return true
	})
	if err != nil {
		return 0, err // deadline or closed socket, wrapped as a net.Error
	}
	if operr != 0 {
		return 0, operr
	}
	for i := 0; i < n; i++ {
		dgs[i].Buf = dgs[i].Buf[:c.rhdrs[i].len]
		dgs[i].Addr = c.sockaddrToAddrPort(&c.rnames[i])
	}
	return n, nil
}

// WriteBatch performs one sendmmsg for the whole queue. A short return
// means the kernel stopped at dgs[n]; the caller skips or retries from
// there, per the BatchPacketConn contract.
func (c *udpBatchConn) WriteBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	if len(c.whdrs) < len(dgs) {
		c.whdrs = make([]mmsghdr, len(dgs))
		c.wiovs = make([]syscall.Iovec, len(dgs))
		c.wnames = make([]syscall.RawSockaddrInet6, len(dgs))
	}
	for i := range dgs {
		c.wiovs[i].Base = &dgs[i].Buf[0]
		c.wiovs[i].SetLen(len(dgs[i].Buf))
		namelen := c.addrPortToSockaddr(dgs[i].Addr, &c.wnames[i])
		c.whdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&c.wnames[i])),
			Namelen: namelen,
			Iov:     &c.wiovs[i],
			Iovlen:  1,
		}}
	}
	var (
		n     int
		operr syscall.Errno
	)
	err := c.raw.Write(func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&c.whdrs[0])), uintptr(len(dgs)),
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN || errno == syscall.EINTR {
			return false // park until writable
		}
		if errno != 0 {
			// sendmmsg reports an errno only when the FIRST message
			// failed; otherwise it returns the accepted prefix length.
			n, operr = 0, errno
		} else {
			n, operr = int(r), 0
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if operr != 0 {
		return 0, operr
	}
	// A short count with no errno is a clean partial send: the caller
	// re-invokes with the rest of the queue.
	return n, nil
}

// sockaddrToAddrPort decodes the kernel-filled source address,
// including the IPv6 zone for link-local peers. Ports are read
// byte-wise: the raw sockaddr stores them in network order regardless
// of host endianness.
func (c *udpBatchConn) sockaddrToAddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		addr := netip.AddrFrom16(sa.Addr).Unmap()
		if sa.Scope_id != 0 {
			addr = addr.WithZone(c.zoneName(sa.Scope_id))
		}
		return netip.AddrPortFrom(addr, uint16(p[0])<<8|uint16(p[1]))
	default:
		return netip.AddrPort{}
	}
}

// addrPortToSockaddr encodes a destination into the scratch sockaddr,
// returning the length the msghdr must carry.
func (c *udpBatchConn) addrPortToSockaddr(ap netip.AddrPort, sa *syscall.RawSockaddrInet6) uint32 {
	port := ap.Port()
	if addr := ap.Addr(); addr.Is4() || addr.Is4In6() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: addr.Unmap().As4()}
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet4
	} else {
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: addr.As16()}
		if zone := addr.Zone(); zone != "" {
			sa.Scope_id = c.zoneID(zone)
		}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet6
	}
}

// zoneName resolves an IPv6 scope id to its zone name through the
// read-side cache, matching how *net.UDPConn names zones. An unknown
// index falls back to its decimal form, which the encode side also
// understands.
func (c *udpBatchConn) zoneName(id uint32) string {
	if name, ok := c.zoneNames[id]; ok {
		return name
	}
	name := strconv.FormatUint(uint64(id), 10)
	if ifi, err := net.InterfaceByIndex(int(id)); err == nil {
		name = ifi.Name
	}
	if c.zoneNames == nil {
		c.zoneNames = make(map[uint32]string)
	}
	c.zoneNames[id] = name
	return name
}

// zoneID resolves a zone name to an IPv6 scope id through the
// write-side cache; decimal zones (the decode fallback, and what
// netip parses from "%3") pass straight through.
func (c *udpBatchConn) zoneID(zone string) uint32 {
	if id, ok := c.zoneIDs[zone]; ok {
		return id
	}
	var id uint32
	if ifi, err := net.InterfaceByName(zone); err == nil {
		id = uint32(ifi.Index)
	} else if n, err := strconv.ParseUint(zone, 10, 32); err == nil {
		id = uint32(n)
	}
	if c.zoneIDs == nil {
		c.zoneIDs = make(map[string]uint32)
	}
	c.zoneIDs[zone] = id
	return id
}
