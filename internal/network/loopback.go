package network

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Loopback is a stepped transport whose every envelope crosses a real byte
// stream: Send frames the envelope onto one end of a connection, a reader
// goroutine reassembles frames on the other end, and Step waits for the
// stream to catch up before feeding the received frames to a one-shard
// Simulator, which owns registration, loss, delivery and the counters. A
// run over Loopback thus proves that every message survives genuine
// serialization and transport, while remaining bit-for-bit reproducible: a
// single ordered stream delivers in exactly the global send order.
//
// NewTCPLoopback carries the stream over a localhost TCP socket; in
// environments where the OS forbids even loopback sockets it falls back to
// an in-memory net.Pipe, which exercises the identical framing path.
type Loopback struct {
	sim *Simulator

	wc  net.Conn
	rc  net.Conn
	w   *bufio.Writer
	buf []byte // frame scratch, reused across sends

	qmu   sync.Mutex
	queue []Envelope // frames reassembled by the reader, not yet fed to sim

	accepted uint64 // frames written to the stream (driver goroutine only)
	consumed uint64 // frames fed to sim by Step
	received atomic.Uint64
	readErr  atomic.Value // error set by the reader goroutine
	sideErr  error        // first write/flush/deadline error (driver goroutine only)
	done     chan struct{}

	tcp bool
}

// NewTCPLoopback creates a loopback transport over a 127.0.0.1 TCP socket,
// falling back to net.Pipe when loopback sockets are unavailable.
func NewTCPLoopback(psend float64, seed int64) (*Loopback, error) {
	sim, err := NewSimulator(psend, seed)
	if err != nil {
		return nil, err
	}
	wc, rc, tcp, err := dialSelf()
	if err != nil {
		return nil, err
	}
	t := &Loopback{
		sim:  sim,
		wc:   wc,
		rc:   rc,
		w:    bufio.NewWriterSize(wc, 1<<16),
		done: make(chan struct{}),
		tcp:  tcp,
	}
	go t.readLoop()
	return t, nil
}

// dialSelf establishes the loopback stream: TCP when possible, net.Pipe
// otherwise.
func dialSelf() (wc, rc net.Conn, tcp bool, err error) {
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		wc, rc = net.Pipe()
		return wc, rc, false, nil
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, aerr := ln.Accept()
		ch <- accepted{c, aerr}
	}()
	wc, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		wc, rc = net.Pipe()
		return wc, rc, false, nil
	}
	a := <-ch
	if a.err != nil {
		wc.Close()
		return nil, nil, false, fmt.Errorf("network: loopback accept: %w", a.err)
	}
	return wc, a.c, true, nil
}

// TCP reports whether the stream is a real TCP socket (false: net.Pipe
// fallback).
func (t *Loopback) TCP() bool { return t.tcp }

// Register installs the handler for a peer.
func (t *Loopback) Register(p graph.PeerID, h Handler) error { return t.sim.Register(p, h) }

// Send frames the envelope onto the stream for delivery at the next Step.
// Loss is applied at send time, before serialization. Send and Step must be
// called from the same goroutine (handlers sending during a Step satisfy
// this).
func (t *Loopback) Send(e Envelope) {
	if !t.sim.admit(0, e) {
		return
	}
	b := t.buf[:0]
	b = binary.AppendUvarint(b, uint64(len(e.From)))
	b = append(b, e.From...)
	b = binary.AppendUvarint(b, uint64(len(e.To)))
	b = append(b, e.To...)
	b = binary.AppendUvarint(b, uint64(len(e.Payload)))
	b = append(b, e.Payload...)
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		if t.sideErr == nil {
			t.sideErr = fmt.Errorf("network: loopback write: %w", err)
		}
		return
	}
	t.accepted++
}

// readLoop reassembles frames from the stream into the delivery queue.
func (t *Loopback) readLoop() {
	defer close(t.done)
	r := bufio.NewReaderSize(t.rc, 1<<16)
	readField := func() ([]byte, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if n > 1<<24 {
			return nil, fmt.Errorf("network: loopback frame field of %d bytes", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	for {
		from, err := readField()
		if err != nil {
			t.readErr.Store(err)
			return
		}
		to, err := readField()
		if err != nil {
			t.readErr.Store(err)
			return
		}
		payload, err := readField()
		if err != nil {
			t.readErr.Store(err)
			return
		}
		e := Envelope{From: graph.PeerID(from), To: graph.PeerID(to), Payload: payload}
		t.qmu.Lock()
		t.queue = append(t.queue, e)
		t.qmu.Unlock()
		t.received.Add(1)
	}
}

// Step flushes the stream, waits until every frame written so far has been
// received on the far end, and has the simulator deliver the batch in
// arrival order (= send order: the stream is ordered). Messages sent by
// handlers during the step ride the stream again and are delivered in the
// next one.
func (t *Loopback) Step() int {
	if err := t.w.Flush(); err != nil {
		if t.sideErr == nil {
			t.sideErr = fmt.Errorf("network: loopback flush: %w", err)
		}
		return 0
	}
	want := t.accepted
	deadline := time.Now().Add(10 * time.Second)
	for t.received.Load() < want {
		if t.readErr.Load() != nil {
			break
		}
		if time.Now().After(deadline) {
			if t.sideErr == nil {
				t.sideErr = fmt.Errorf("network: loopback step: %d of %d frames still in flight after 10s",
					want-t.received.Load(), want)
			}
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	t.qmu.Lock()
	in := &t.sim.next[0]
	*in = append(*in, t.queue...)
	t.consumed += uint64(len(t.queue))
	clear(t.queue)
	t.queue = t.queue[:0]
	t.qmu.Unlock()
	return t.sim.Step()
}

// Pending returns the number of frames in flight or queued: accepted onto
// the stream but not yet processed by a Step.
func (t *Loopback) Pending() int {
	return int(t.accepted - t.consumed)
}

// Drain steps until nothing is in flight or maxSteps is reached, returning
// the number of steps taken.
func (t *Loopback) Drain(maxSteps int) int { return drain(t, maxSteps) }

// Stats returns a copy of the transport counters.
func (t *Loopback) Stats() Stats { return t.sim.Stats() }

// Err returns the first stream error observed — a failed write or flush, a
// reader-side decode/IO failure, or a Step that timed out waiting for the
// stream. Drivers must check it after a run: the Transport interface cannot
// carry errors per Send/Step, so a broken socket otherwise degrades into
// silently missing messages (RunDetection does check).
func (t *Loopback) Err() error {
	if t.sideErr != nil {
		return t.sideErr
	}
	if v := t.readErr.Load(); v != nil {
		if err, ok := v.(error); ok && err != io.EOF {
			return err
		}
	}
	return nil
}

// Close tears the stream down and waits for the reader to exit.
func (t *Loopback) Close() error {
	t.w.Flush()
	t.wc.Close()
	t.rc.Close()
	<-t.done
	return nil
}
