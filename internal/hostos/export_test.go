package hostos

import "rakis/internal/netstack"

// SockForTest returns the kernel stack socket behind a socket descriptor
// (one of the two is nil), so an external test can hand the very same
// socket to a layer that polls netstack sockets directly.
func (p *Proc) SockForTest(fd int) (*netstack.UDPSocket, *netstack.TCPSocket) {
	switch o, _ := p.kern.lookupFD(fd); o := o.(type) {
	case *udpObj:
		return o.sock, nil
	case *tcpObj:
		return nil, o.sock
	}
	return nil, nil
}
