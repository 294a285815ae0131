package hostos

import (
	"time"

	"rakis/internal/netstack"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Proc is a process's view of the kernel: the syscall layer. Each
// simulated application thread drives syscalls through a Proc with its
// own virtual clock. Proc methods charge the syscall entry cost plus the
// operation's kernel work to the caller's clock — the Native baseline.
// The LibOS layers (internal/libos) add Gramine's costs on top.
type Proc struct {
	kern *Kernel
	ns   *NetNS
	// Free marks an uncosted load-generator process ("running natively
	// in its own network namespace"): syscall entry is not charged.
	Free     bool
	Counters *vtime.Counters
}

// NewProc creates a process bound to a network namespace.
func (k *Kernel) NewProc(ns *NetNS, counters *vtime.Counters) *Proc {
	return &Proc{kern: k, ns: ns, Counters: counters}
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.kern }

// enter charges one syscall entry.
func (p *Proc) enter(clk *vtime.Clock) {
	if p.Counters != nil {
		p.Counters.Syscalls.Add(1)
	}
	if !p.Free {
		clk.Advance(p.kern.Model.Syscall)
		p.kern.Trace.Emit(telemetry.EvSyscall, clk.Now(), 0, 0)
	}
}

// --- sockets ---------------------------------------------------------------

// udpObj and tcpObj are the kernel socket objects behind descriptors.
type udpObj struct{ sock *netstack.UDPSocket }

type tcpObj struct {
	sock     *netstack.TCPSocket
	listener bool
}

// Socket creates a kernel socket and returns its descriptor.
func (p *Proc) Socket(typ SockType, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	switch typ {
	case SockUDP:
		sock, err := p.ns.Stack.UDPBind(0)
		if err != nil {
			return -1, err
		}
		return p.kern.installFD(&udpObj{sock: sock}), nil
	case SockTCP:
		// TCP sockets materialize at connect/listen time; install a
		// placeholder carrying the namespace.
		return p.kern.installFD(&tcpObj{}), nil
	default:
		return -1, ErrInval
	}
}

// Bind assigns the local port. For UDP this rebinds the ephemeral socket;
// for TCP it records the port used by a later Listen.
func (p *Proc) Bind(fd int, port uint16, clk *vtime.Clock) error {
	p.enter(clk)
	obj, err := p.kern.lookupFD(fd)
	if err != nil {
		return err
	}
	switch o := obj.(type) {
	case *udpObj:
		sock, err := p.ns.Stack.UDPBind(port)
		if err != nil {
			return err
		}
		o.sock.Close()
		o.sock = sock
		return nil
	case *tcpObj:
		if o.sock != nil || o.listener {
			return ErrInval
		}
		p.kern.mu.Lock()
		p.kern.fds[fd] = &tcpPending{port: port}
		p.kern.mu.Unlock()
		return nil
	case *tcpPending:
		o.port = port
		return nil
	default:
		return ErrNotSocket
	}
}

// tcpPending is a TCP socket that has been bound but not yet listened or
// connected.
type tcpPending struct{ port uint16 }

// Listen turns a bound TCP socket into a listener.
func (p *Proc) Listen(fd, backlog int, clk *vtime.Clock) error {
	p.enter(clk)
	obj, err := p.kern.lookupFD(fd)
	if err != nil {
		return err
	}
	var port uint16
	switch o := obj.(type) {
	case *tcpPending:
		port = o.port
	case *tcpObj:
		if o.sock != nil || o.listener {
			return ErrInval
		}
	default:
		return ErrNotSocket
	}
	l, err := p.ns.Stack.TCPListen(port, backlog)
	if err != nil {
		return err
	}
	p.kern.mu.Lock()
	p.kern.fds[fd] = &tcpObj{sock: l, listener: true}
	p.kern.mu.Unlock()
	return nil
}

// Connect establishes a TCP connection (UDP connect sets the default
// destination).
func (p *Proc) Connect(fd int, addr netstack.Addr, clk *vtime.Clock) error {
	p.enter(clk)
	obj, err := p.kern.lookupFD(fd)
	if err != nil {
		return err
	}
	switch o := obj.(type) {
	case *udpObj:
		o.sock.Connect(addr)
		return nil
	case *tcpObj:
		if o.sock != nil || o.listener {
			return ErrInval
		}
		c, err := p.ns.Stack.TCPConnect(addr, clk)
		if err != nil {
			return err
		}
		p.kern.mu.Lock()
		p.kern.fds[fd] = &tcpObj{sock: c}
		p.kern.mu.Unlock()
		return nil
	case *tcpPending:
		c, err := p.ns.Stack.TCPConnect(addr, clk)
		if err != nil {
			return err
		}
		p.kern.mu.Lock()
		p.kern.fds[fd] = &tcpObj{sock: c}
		p.kern.mu.Unlock()
		return nil
	default:
		return ErrNotSocket
	}
}

// Accept returns a new descriptor for the next established connection.
func (p *Proc) Accept(fd int, clk *vtime.Clock, block bool) (int, netstack.Addr, error) {
	p.enter(clk)
	o, err := lookupAs[*tcpObj](p.kern, fd, ErrNotSocket)
	if err == nil && !o.listener {
		err = ErrNotSocket
	}
	if err != nil {
		return -1, netstack.Addr{}, err
	}
	c, err := o.sock.Accept(clk, block)
	if err != nil {
		return -1, netstack.Addr{}, err
	}
	return p.kern.installFD(&tcpObj{sock: c}), c.RemoteAddr(), nil
}

// SendTo transmits one datagram.
func (p *Proc) SendTo(fd int, b []byte, addr netstack.Addr, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	o, err := lookupAs[*udpObj](p.kern, fd, ErrNotSocket)
	if err != nil {
		return 0, err
	}
	if err := o.sock.SendTo(b, addr, clk); err != nil {
		return 0, err
	}
	return len(b), nil
}

// RecvFrom receives one datagram into b.
func (p *Proc) RecvFrom(fd int, b []byte, clk *vtime.Clock, block bool) (int, netstack.Addr, error) {
	p.enter(clk)
	o, err := lookupAs[*udpObj](p.kern, fd, ErrNotSocket)
	if err != nil {
		return 0, netstack.Addr{}, err
	}
	d, err := o.sock.RecvFrom(clk, block)
	if err != nil {
		return 0, netstack.Addr{}, err
	}
	n := copy(b, d.Payload)
	clk.Advance(vtime.Bytes(p.kern.Model.UserCopyPerByte, n))
	return n, d.Src, nil
}

// Send writes stream or connected-datagram data.
func (p *Proc) Send(fd int, b []byte, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	obj, err := p.kern.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	switch o := obj.(type) {
	case *udpObj:
		if err := o.sock.Send(b, clk); err != nil {
			return 0, err
		}
		return len(b), nil
	case *tcpObj:
		if o.sock == nil || o.listener {
			return 0, ErrInval
		}
		return o.sock.Send(b, clk)
	default:
		return 0, ErrNotSocket
	}
}

// Recv reads stream or connected-datagram data.
func (p *Proc) Recv(fd int, b []byte, clk *vtime.Clock, block bool) (int, error) {
	p.enter(clk)
	obj, err := p.kern.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	switch o := obj.(type) {
	case *udpObj:
		d, err := o.sock.RecvFrom(clk, block)
		if err != nil {
			return 0, err
		}
		n := copy(b, d.Payload)
		clk.Advance(vtime.Bytes(p.kern.Model.UserCopyPerByte, n))
		return n, nil
	case *tcpObj:
		if o.sock == nil || o.listener {
			return 0, ErrInval
		}
		return o.sock.Recv(b, clk, block)
	default:
		return 0, ErrNotSocket
	}
}

// --- files ------------------------------------------------------------------

// Open opens (or with OCreate creates) a file.
func (p *Proc) Open(path string, flags int, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	if !p.Free {
		clk.Advance(p.kern.Model.VfsOp)
	}
	var ino *Inode
	var err error
	if flags&OCreate != 0 {
		ino = p.kern.vfs.Create(path)
	} else {
		ino, err = p.kern.vfs.Lookup(path)
		if err != nil {
			return -1, err
		}
		if flags&OTrunc != 0 {
			ino.Truncate(0)
		}
	}
	return p.kern.installFD(&File{ino: ino, path: path, flags: flags}), nil
}

func (p *Proc) file(fd int) (*File, error) {
	return lookupAs[*File](p.kern, fd, ErrNotFile)
}

// Read reads from the file cursor.
func (p *Proc) Read(fd int, b []byte, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.ino.ReadAt(b, f.off)
	f.off += int64(n)
	if !p.Free {
		clk.Advance(p.kern.Model.VfsOp + vtime.Bytes(p.kern.Model.KernelCopyPerByte, n))
	}
	return n, nil
}

// Write writes at the file cursor.
func (p *Proc) Write(fd int, b []byte, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.ino.WriteAt(b, f.off)
	f.off += int64(n)
	if !p.Free {
		clk.Advance(p.kern.Model.VfsOp + vtime.Bytes(p.kern.Model.KernelCopyPerByte, n))
	}
	return n, nil
}

// Pread reads at an explicit offset without moving the cursor.
func (p *Proc) Pread(fd int, b []byte, off int64, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	n := f.ino.ReadAt(b, off)
	if !p.Free {
		clk.Advance(p.kern.Model.VfsOp + vtime.Bytes(p.kern.Model.KernelCopyPerByte, n))
	}
	return n, nil
}

// Pwrite writes at an explicit offset without moving the cursor.
func (p *Proc) Pwrite(fd int, b []byte, off int64, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	n := f.ino.WriteAt(b, off)
	if !p.Free {
		clk.Advance(p.kern.Model.VfsOp + vtime.Bytes(p.kern.Model.KernelCopyPerByte, n))
	}
	return n, nil
}

// Lseek repositions the cursor (whence 0=set, 1=cur, 2=end).
func (p *Proc) Lseek(fd int, off int64, whence int, clk *vtime.Clock) (int64, error) {
	p.enter(clk)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch whence {
	case 0:
		f.off = off
	case 1:
		f.off += off
	case 2:
		f.off = f.ino.Size() + off
	default:
		return 0, ErrInval
	}
	if f.off < 0 {
		f.off = 0
	}
	return f.off, nil
}

// Fstat returns the file size.
func (p *Proc) Fstat(fd int, clk *vtime.Clock) (int64, error) {
	p.enter(clk)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	return f.ino.Size(), nil
}

// Close releases a descriptor of any kind.
func (p *Proc) Close(fd int, clk *vtime.Clock) error {
	p.enter(clk)
	obj, err := p.kern.removeFD(fd)
	if err != nil {
		return err
	}
	switch o := obj.(type) {
	case *udpObj:
		o.sock.Close()
	case *tcpObj:
		if o.sock != nil {
			o.sock.Close(clk)
		}
	case *uringKernel:
		o.stop()
	case *xskKernel:
		o.unbind()
	}
	return nil
}

// --- poll -------------------------------------------------------------------

// Poll waits until any descriptor is ready or the real-time timeout
// expires (timeout < 0 waits indefinitely). It returns the ready count
// and fills Revents. The virtual cost is one scan of the descriptor set.
func (p *Proc) Poll(fds []sys.PollFD, timeout time.Duration, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	if !p.Free {
		clk.Advance(uint64(len(fds)) * p.kern.Model.PollPerFD)
	}
	n := 0
	vtime.Until(timeout, kernelPark, func(time.Duration) bool {
		n = 0
		for i := range fds {
			fds[i].Revents = p.kern.readiness(fds[i].FD, fds[i].Events)
			if fds[i].Revents != 0 {
				n++
			}
		}
		return n > 0
	})
	return n, nil
}

// Futex models Gramine's observation (§6.1) that some futex waits can be
// handled without a host syscall: the Native path charges a syscall, the
// LibOS layers may not. Here it is simply a cost hook.
func (p *Proc) Futex(clk *vtime.Clock) {
	p.enter(clk)
}

// Fsync is a no-op on the in-memory filesystem but costs a syscall.
func (p *Proc) Fsync(fd int, clk *vtime.Clock) error {
	p.enter(clk)
	_, err := p.file(fd)
	return err
}

// Unlink removes a file.
func (p *Proc) Unlink(path string, clk *vtime.Clock) error {
	p.enter(clk)
	return p.kern.vfs.Unlink(path)
}
