package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safemod/safetcp"
	"safelinux/pkg/safelinux"
)

// rpc workload shape.
const (
	rpcKeys     = 256  // fits the dcache
	rpcDirs     = 4    // directories the keys are spread over
	reqSize     = 64   // request message: the key
	reqsPerConn = 8    // requests a connection carries before it is closed
	rpcPort     = 7000 // server port on host B
	rpcWarmup   = 512  // requests run untimed before any measured phase
	// protoPrefix is how many requests the protocol counters cover:
	// a fixed prefix of the phase, so the counts repeat exactly.
	protoPrefix = 2048
)

// stream is the connection surface both transports share.
type stream interface {
	Send([]byte) kbase.Errno
	Recv([]byte) (int, kbase.Errno)
	Close() kbase.Errno
	Established() bool
}

// transport opens client connections on host A and accepts them on
// host B, over whichever stack the kernel runs.
type transport struct {
	connect func() (stream, kbase.Errno)
	accept  func() (stream, kbase.Errno)
}

func listen(k *safelinux.Kernel) (*transport, error) {
	hostA, hostB := k.Hosts()
	if k.TCPSafe() {
		epA, epB := k.SafeEndpoints()
		l, err := epB.Listen(rpcPort)
		if err != kbase.EOK {
			return nil, fmt.Errorf("listen: %v", err)
		}
		return &transport{
			connect: func() (stream, kbase.Errno) { return ret(epA.Connect(hostB.Addr(), rpcPort)) },
			accept:  func() (stream, kbase.Errno) { return ret(l.Accept()) },
		}, nil
	}
	l, err := hostB.ListenTCP(rpcPort)
	if err != kbase.EOK {
		return nil, fmt.Errorf("listen: %v", err)
	}
	return &transport{
		connect: func() (stream, kbase.Errno) { return ret(hostA.ConnectTCP(hostB.Addr(), rpcPort)) },
		accept:  func() (stream, kbase.Errno) { return ret(l.Accept()) },
	}, nil
}

// ret converts a concrete connection result to a stream without
// turning a nil pointer into a non-nil interface.
func ret[T interface {
	*net.Socket | *safetcp.Conn
	stream
}](c T, err kbase.Errno) (stream, kbase.Errno) {
	if err != kbase.EOK || c == nil {
		return nil, err
	}
	return c, kbase.EOK
}

// Client connection states.
const (
	cDown       = iota // needs a connection
	cConnecting        // connect issued, handshake in progress
	cWaiting           // request sent, reading the reply
)

type rpcClient struct {
	conn   stream
	state  int
	onConn int // requests completed on this connection
	key    int
	start  time.Time
	got    int
	resp   []byte
}

type rpcServerConn struct {
	conn stream
	in   []byte
	n    int
}

// rpcRunner runs the whole rpc workload on one goroutine: the packet
// simulator is single-threaded, so one runner steps it and services
// both client connections and the server between steps. With one
// runner everything the kernel sees is a function of the seed.
type rpcRunner struct {
	k       *safelinux.Kernel
	st      *store
	tr      *transport
	task    *kbase.Task
	rng     *rng
	clients []*rpcClient
	servers []*rpcServerConn
	req     []byte
	val     []byte
	scratch []byte

	t0      time.Time // phase start
	steps   int64
	samples []sample
	errs    errorLog
	errnos  errnoCounts
	reads   int64   // server preads
	rate    float64 // requests/s in the warm-up, which sizes the sample buffer
}

func newRPCRunner(st *store, tr *transport, seed uint64) *rpcRunner {
	d := &rpcRunner{
		k: st.k, st: st, tr: tr, task: kbase.NewTask(), rng: newRng(seed, 100),
		req: make([]byte, reqSize), val: make([]byte, valueSize), scratch: make([]byte, valueSize),
		errnos: errnoCounts{},
	}
	for i := 0; i < clients; i++ {
		d.clients = append(d.clients, &rpcClient{resp: make([]byte, valueSize)})
	}
	return d
}

// span times one call into a layer function as a child of the
// current runner iteration.
func (d *rpcRunner) span(op *ktrace.Op) ktrace.OpTimer { return op.Begin(d.task) }

// begin starts a client's next request: pick a key, connect if the
// client has no connection, else send at once.
func (d *rpcRunner) begin(c *rpcClient) {
	c.key = d.rng.intn(len(d.st.paths))
	c.start = time.Now()
	c.got = 0
	if c.conn == nil {
		t := d.span(opConnect)
		conn, err := d.tr.connect()
		t.End()
		if err != kbase.EOK {
			d.finish(c, err)
			return
		}
		c.conn, c.state, c.onConn = conn, cConnecting, 0
		return
	}
	d.send(c)
}

func (d *rpcRunner) send(c *rpcClient) {
	binary.LittleEndian.PutUint64(d.req, uint64(c.key))
	for i := 8; i < reqSize; i++ {
		d.req[i] = byte(c.key + i)
	}
	t := d.span(opSend)
	err := c.conn.Send(d.req)
	t.End()
	if err != kbase.EOK {
		d.finish(c, err)
		return
	}
	c.state = cWaiting
}

// finish records a request's outcome and starts the client's next
// one (closed loop). A failed request drops its connection.
func (d *rpcRunner) finish(c *rpcClient, err kbase.Errno) {
	lat := time.Since(c.start).Nanoseconds()
	if err != kbase.EOK {
		d.errnos[err]++
		lat = failedLat
	} else {
		c.onConn++
	}
	d.samples = append(d.samples, sample{at: time.Since(d.t0).Nanoseconds(), lat: lat, kind: kindRead})
	if c.conn != nil && (err != kbase.EOK || c.onConn == reqsPerConn) {
		t := d.span(opConnEnd)
		_ = c.conn.Close() // the connection is done either way; a close error has no reader
		t.End()
		c.conn = nil
	}
	c.state = cDown
}

// serve handles one accepted connection: read a 64 B key, pread its
// value through the VFS, send it back.
func (d *rpcRunner) serve(s *rpcServerConn) (done bool) {
	for {
		t := d.span(opRecv)
		n, err := s.conn.Recv(s.in[s.n:])
		t.End()
		if err == kbase.EAGAIN {
			return false
		}
		if err != kbase.EOK || n == 0 {
			t := d.span(opConnEnd)
			_ = s.conn.Close() // peer closed or reset; nothing more to send
			t.End()
			return true
		}
		s.n += n
		if s.n < reqSize {
			continue
		}
		s.n = 0
		key := int(binary.LittleEndian.Uint64(s.in))
		if key < 0 || key >= len(d.st.paths) {
			d.errs.add("server received key %d out of range", key)
			continue
		}
		d.reads++
		if err := d.st.read(d.task, key, d.val, d.scratch, &d.errs); err != kbase.EOK {
			d.errs.add("server: pread of key %d failed: %v", key, err)
			continue
		}
		t = d.span(opSend)
		err = s.conn.Send(d.val)
		t.End()
		if err != kbase.EOK {
			d.errs.add("server: send failed: %v", err)
		}
	}
}

// iterate is one runner iteration: step the simulator, accept, serve,
// and advance each client.
func (d *rpcRunner) iterate() {
	root := opLoop.Begin(d.task)
	defer root.End()
	t := d.span(opStep)
	d.k.Sim.Step()
	t.End()
	d.steps++
	for {
		t := d.span(opAccept)
		conn, err := d.tr.accept()
		t.End()
		if err != kbase.EOK {
			break
		}
		d.servers = append(d.servers, &rpcServerConn{conn: conn, in: make([]byte, reqSize)})
	}
	live := d.servers[:0]
	for _, s := range d.servers {
		if !d.serve(s) {
			live = append(live, s)
		}
	}
	d.servers = live
	for _, c := range d.clients {
		switch c.state {
		case cDown:
			d.begin(c)
		case cConnecting:
			if c.conn.Established() {
				d.send(c)
			}
		case cWaiting:
			t := d.span(opRecv)
			n, err := c.conn.Recv(c.resp[c.got:])
			t.End()
			if err == kbase.EAGAIN {
				continue
			}
			if err == kbase.EOK && n == 0 {
				err = kbase.ECONNRESET // EOF before the whole reply
			}
			if err != kbase.EOK {
				d.finish(c, err)
				continue
			}
			c.got += n
			if c.got == valueSize {
				if msg := checkValue(c.resp, d.scratch, d.st.seed, c.key, d.st.acked[c.key]); msg != "" {
					d.errs.add("rpc reply: %s", msg)
				}
				d.finish(c, kbase.EOK)
			}
		}
	}
}

// proto snapshots the protocol counters.
func (d *rpcRunner) proto() protoCounts {
	st := d.k.Sim.Stats()
	p := protoCounts{
		reqs: int64(len(d.samples)), jiffies: d.k.Sim.Clock().Now(), steps: d.steps,
		packets: st.Sent, dropped: st.Dropped,
	}
	if tp := ktrace.Lookup("net:retransmit"); tp != nil {
		p.retransmits = tp.Hits()
	}
	if tp := ktrace.Lookup("safetcp:retransmit"); tp != nil {
		p.safeRetx = tp.Hits()
	}
	if epA, epB := d.k.SafeEndpoints(); epA != nil {
		p.segments = epA.Stats().Segments + epB.Stats().Segments
	}
	return p
}

// run runs the runner until dur has passed and at least minReqs
// requests have finished, and returns the wall time and the protocol
// counts over its first protoPrefix requests.
func (d *rpcRunner) run(dur time.Duration, minReqs int) (time.Duration, protoCounts) {
	d.samples, d.errnos, d.reads = d.samples[:0], errnoCounts{}, 0
	start := time.Now()
	d.t0 = start
	deadline := start.Add(dur)
	p0 := d.proto()
	var prefix protoCounts
	for len(d.samples) < minReqs || time.Now().Before(deadline) {
		d.iterate()
		if prefix.reqs == 0 && len(d.samples) >= protoPrefix {
			prefix = d.proto().sub(p0)
		}
	}
	return time.Since(start), prefix
}

func (d *rpcRunner) store() *store { return d.st }

// warmup runs rpcWarmup requests: a request count, not a duration, so
// every phase starts from the same simulator state for a given seed.
func (d *rpcRunner) warmup(float64) {
	wall, _ := d.run(0, rpcWarmup)
	d.rate = float64(len(d.samples)) / wall.Seconds()
}

func (d *rpcRunner) reserve(dur time.Duration) {
	d.samples = make([]sample, 0, sampleCap(d.rate, dur))
}

func (d *rpcRunner) clientErrors(errs *errorLog) { errs.merge(&d.errs) }

// phase runs for dur, and at least protoPrefix requests. One runner
// goroutine is busy for the whole phase.
func (d *rpcRunner) phase(dur time.Duration) phaseStats {
	wall, prefix := d.run(dur, protoPrefix)
	ph := phaseStats{
		samples: [][]sample{d.samples}, wall: wall, busy: wall,
		attempted: int64(len(d.samples)), reads: d.reads, errnos: d.errnos, proto: prefix,
	}
	for _, n := range d.errnos {
		ph.failed += n
	}
	return ph
}
