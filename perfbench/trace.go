package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/wire"
)

// span is one timed call from the benchmark into a layer's public API.
// Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Side   string `json:"side"` // client, server or isolation
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"` // wire spans: payload bytes moved
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// start opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) start(name, side, req string, parent int) int {
	if r == nil {
		return -1
	}
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Side: side, Req: req, Start: now})
	return len(r.spans) - 1
}

// end closes span id, recording the bytes it moved.
func (r *recorder) end(id, bytes int) {
	if r == nil || id < 0 {
		return
	}
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.spans[id].Bytes = bytes
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores a header line and then one JSON line per span.
func (r *recorder) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(header)
	for _, s := range r.snapshot() {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s, e
		case e > curEnd:
			curEnd = e
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// spanRef names the request and parent span that wire traffic on a
// connection currently belongs to.
type spanRef struct {
	req    string
	parent int
}

// tracedConn is the wire.Conn the benchmark hands to both endpoints in
// a traced run: every SendMsg, RecvMsg and SendVec becomes a span
// under the protocol call in flight on that connection.
type tracedConn struct {
	inner wire.Conn
	rec   *recorder
	side  string
	cur   atomic.Pointer[spanRef]
}

func newTracedConn(inner wire.Conn, rec *recorder, side string) *tracedConn {
	c := &tracedConn{inner: inner, rec: rec, side: side}
	c.bind("", -1)
	return c
}

// bind attributes the connection's next wire calls to req and parent.
func (c *tracedConn) bind(req string, parent int) {
	if c == nil {
		return
	}
	c.cur.Store(&spanRef{req: req, parent: parent})
}

func (c *tracedConn) open(name string) int {
	ref := c.cur.Load()
	return c.rec.start(name, c.side, ref.req, ref.parent)
}

func (c *tracedConn) SendMsg(msg []byte) error {
	id := c.open("wire.Conn.SendMsg")
	err := c.inner.SendMsg(msg)
	c.rec.end(id, len(msg))
	return err
}

// SendVec keeps the vectored path vectored: wire.SendVec looks for
// SendVec on the Conn it is given, so a wrapper without it would turn
// every streamed chunk into a concatenating SendMsg.
func (c *tracedConn) SendVec(segs [][]byte) error {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	id := c.open("wire.Conn.SendVec")
	err := wire.SendVec(c.inner, segs)
	c.rec.end(id, n)
	return err
}

func (c *tracedConn) RecvMsg() ([]byte, error) {
	id := c.open("wire.Conn.RecvMsg")
	msg, err := c.inner.RecvMsg()
	c.rec.end(id, len(msg))
	return msg, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// Unwrap lets wire.AsDeadline reach the TCP stream underneath.
func (c *tracedConn) Unwrap() wire.Conn { return c.inner }
