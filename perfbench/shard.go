package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// shardWorker is a cmd/shardworker process on a loopback port.
type shardWorker struct {
	cmd  *exec.Cmd
	addr string
}

// startWorker launches the shardworker binary with one scoring worker
// and waits for its listen address.
func (b *bench) startWorker() error {
	cmd := exec.Command(b.cfg.worker, "-addr", "127.0.0.1:0", "-workers", "1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start shardworker: %w", err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("shardworker printed %q, not its address (%v)", line, err)
	}
	go io.Copy(io.Discard, stdout)
	b.worker = &shardWorker{cmd: cmd, addr: addr}
	return nil
}

// stopWorker stops the worker, if any, and waits for it to exit.
func (b *bench) stopWorker() {
	w := b.worker
	if w == nil {
		return
	}
	b.worker = nil
	w.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { w.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		w.cmd.Process.Kill()
		<-done
	}
}

// shardAddr is where the coordinator dials: the counting relay in the
// traced run, the worker itself otherwise.
func (b *bench) shardAddr() string {
	if b.relay != nil {
		return b.relay.addr
	}
	return b.worker.addr
}

// workerCPU is the worker process's CPU time so far (0 without one).
func (b *bench) workerCPU() time.Duration {
	if b.worker == nil {
		return 0
	}
	return procCPU(b.worker.cmd.Process.Pid)
}

// wireBytes is a snapshot of the relay's byte counters.
type wireBytes struct{ out, in int64 }

func (w wireBytes) total() int64 { return w.out + w.in }

func (b *bench) relayBytes() wireBytes {
	if b.relay == nil {
		return wireBytes{}
	}
	return wireBytes{b.relay.out.Load(), b.relay.in.Load()}
}

// relay is a byte-counting TCP forwarder placed between the coordinator
// and the worker in the traced run. out counts coordinator → worker
// bytes, in counts worker → coordinator bytes.
type relay struct {
	ln       net.Listener
	addr     string
	upstream string
	out, in  atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    []net.Conn
	hellos   []float64 // per connection: first request byte → first reply byte, ms
}

func startRelay(upstream string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, addr: ln.Addr().String(), upstream: upstream}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		u, err := net.Dial("tcp", r.upstream)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, u)
		idx := len(r.hellos)
		r.hellos = append(r.hellos, 0)
		r.mu.Unlock()
		var firstOut atomic.Int64
		r.wg.Add(2)
		go r.pipe(u, c, &r.out, func() { firstOut.CompareAndSwap(0, time.Now().UnixNano()) })
		go r.pipe(c, u, &r.in, func() {
			if t0 := firstOut.Load(); t0 != 0 {
				r.mu.Lock()
				if r.hellos[idx] == 0 {
					r.hellos[idx] = float64(time.Now().UnixNano()-t0) / 1e6
				}
				r.mu.Unlock()
			}
		})
	}
}

// pipe copies src to dst, counting bytes and calling first on each read.
func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64, first func()) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		k, err := src.Read(buf)
		if k > 0 {
			first()
			n.Add(int64(k))
			if _, werr := dst.Write(buf[:k]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	// Half-close so the peer sees EOF, as it would on a direct link.
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// helloMs is the median HELLO round trip over the relayed connections.
func (r *relay) helloMs() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for _, h := range r.hellos {
		if h > 0 {
			xs = append(xs, h)
		}
	}
	return median(xs)
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
