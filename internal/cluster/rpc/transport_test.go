package rpc

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type echoArgs struct {
	Msg string
}

type echoReply struct {
	Msg string
}

// newEchoServer serves "echo" (returns the message) and "fail" (always
// errors), counting invocations so duplicate-delivery tests can see
// how many times a handler actually ran.
func newEchoServer(calls *atomic.Int64) *Server {
	srv := NewServer()
	Handle(srv, "echo", func(a *echoArgs) (*echoReply, error) {
		if calls != nil {
			calls.Add(1)
		}
		return &echoReply{Msg: a.Msg}, nil
	})
	Handle(srv, "fail", func(a *echoArgs) (*echoReply, error) {
		return nil, fmt.Errorf("handler says no: %s", a.Msg)
	})
	return srv
}

func TestMemNetworkRoundTrip(t *testing.T) {
	n := NewMemNetwork()
	n.Bind("svc", newEchoServer(nil))

	var reply echoReply
	if err := n.Call("svc", "echo", &echoArgs{Msg: "hello"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "hello" {
		t.Fatalf("reply = %q, want hello", reply.Msg)
	}

	// Handler errors come back as errors, not replies — and are NOT
	// transport errors (the handler definitely ran; retrying is wrong).
	if err := n.Call("svc", "fail", &echoArgs{Msg: "x"}, &reply); err == nil || !strings.Contains(err.Error(), "handler says no") {
		t.Fatalf("fail call: err = %v, want handler error", err)
	} else if IsTransportError(err) {
		t.Fatalf("handler error classified as transport error: %v", err)
	}

	// Unknown methods and unbound addresses are errors; only the latter
	// is a transport failure.
	if err := n.Call("svc", "nope", &echoArgs{}, &reply); err == nil {
		t.Fatal("unknown method: expected error")
	}
	if err := n.Call("ghost", "echo", &echoArgs{}, &reply); err == nil {
		t.Fatal("unbound address: expected error")
	} else if !IsTransportError(err) {
		t.Fatalf("connection refusal not a transport error: %v", err)
	}
}

func TestMemNetworkUnbind(t *testing.T) {
	n := NewMemNetwork()
	n.Bind("svc", newEchoServer(nil))
	n.Unbind("svc")
	var reply echoReply
	if err := n.Call("svc", "echo", &echoArgs{Msg: "hi"}, &reply); err == nil {
		t.Fatal("call after Unbind: expected error")
	}
}

func TestTCPNetworkRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var calls atomic.Int64
	go func() { _ = Serve(ln, newEchoServer(&calls)) }()

	tr := &TCPNetwork{}
	addr := ln.Addr().String()
	var reply echoReply
	if err := tr.Call(addr, "echo", &echoArgs{Msg: "over tcp"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "over tcp" {
		t.Fatalf("reply = %q", reply.Msg)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", calls.Load())
	}

	// Errors must cross the wire as errors.
	if err := tr.Call(addr, "fail", &echoArgs{Msg: "y"}, &reply); err == nil || !strings.Contains(err.Error(), "handler says no") {
		t.Fatalf("fail call: err = %v, want handler error", err)
	}
	// A dead address fails fast (dial timeout), not hangs.
	dead := &TCPNetwork{DialTimeout: 200 * time.Millisecond}
	if err := dead.Call("127.0.0.1:1", "echo", &echoArgs{}, &reply); err == nil {
		t.Fatal("dial to closed port: expected error")
	}
}

// TestTCPServerDropsOversizedRequest checks the server's request
// limits: a request over maxRequestBytes is dropped undispatched, a
// peer that sends nothing is cut off at the read deadline, and normal
// calls keep working afterwards.
func TestTCPServerDropsOversizedRequest(t *testing.T) {
	defer func(n int64, d time.Duration) { maxRequestBytes, serverReadTimeout = n, d }(maxRequestBytes, serverReadTimeout)
	maxRequestBytes, serverReadTimeout = 4096, 200*time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var calls atomic.Int64
	go func() { _ = Serve(ln, newEchoServer(&calls)) }()
	tr := &TCPNetwork{}
	addr := ln.Addr().String()

	var reply echoReply
	err = tr.Call(addr, "echo", &echoArgs{Msg: strings.Repeat("x", 2*int(maxRequestBytes))}, &reply)
	if !IsTransportError(err) {
		t.Fatalf("oversized call: err = %v, want a transport error", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("oversized request dispatched %d times", n)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent peer: read = %v, want EOF once the server's deadline closes it", err)
	}

	if err := tr.Call(addr, "echo", &echoArgs{Msg: "still here"}, &reply); err != nil || reply.Msg != "still here" {
		t.Fatalf("normal call after the drops: reply %q, err %v", reply.Msg, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}

func TestUnreliableDropsRequests(t *testing.T) {
	n := NewMemNetwork()
	var calls atomic.Int64
	n.Bind("svc", newEchoServer(&calls))
	u := NewUnreliable(n, 1)
	u.DropRequests(1.0)

	var reply echoReply
	if err := u.Call("svc", "echo", &echoArgs{Msg: "x"}, &reply); err == nil {
		t.Fatal("expected dropped request to error")
	} else if !IsTransportError(err) {
		t.Fatalf("dropped request not a transport error: %v", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("handler ran %d times despite dropped request", calls.Load())
	}
	if dreq, _, _ := u.Stats(); dreq != 1 {
		t.Fatalf("dropped requests = %d, want 1", dreq)
	}
}

func TestUnreliableDropsReplies(t *testing.T) {
	n := NewMemNetwork()
	var calls atomic.Int64
	n.Bind("svc", newEchoServer(&calls))
	u := NewUnreliable(n, 1)
	u.DropReplies(1.0)

	var reply echoReply
	if err := u.Call("svc", "echo", &echoArgs{Msg: "x"}, &reply); err == nil {
		t.Fatal("expected dropped reply to error")
	}
	// The crucial asymmetry: the handler DID run — the caller just
	// never hears about it. This is the case idempotent completion
	// handling exists for.
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (reply dropped, not request)", calls.Load())
	}
	if _, drep, _ := u.Stats(); drep != 1 {
		t.Fatalf("dropped replies = %d, want 1", drep)
	}
}

func TestUnreliableDuplicates(t *testing.T) {
	n := NewMemNetwork()
	var calls atomic.Int64
	n.Bind("svc", newEchoServer(&calls))
	u := NewUnreliable(n, 1)
	u.Duplicate(1.0)

	var reply echoReply
	if err := u.Call("svc", "echo", &echoArgs{Msg: "twice"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "twice" {
		t.Fatalf("reply = %q", reply.Msg)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + duplicate)", calls.Load())
	}
	if _, _, dups := u.Stats(); dups != 1 {
		t.Fatalf("duplicated = %d, want 1", dups)
	}
}

func TestUnreliablePartition(t *testing.T) {
	n := NewMemNetwork()
	var calls atomic.Int64
	n.Bind("svc", newEchoServer(&calls))
	u := NewUnreliable(n, 1)

	u.Partition("svc", true)
	var reply echoReply
	if err := u.Call("svc", "echo", &echoArgs{}, &reply); err == nil {
		t.Fatal("expected partitioned call to error")
	}
	if calls.Load() != 0 {
		t.Fatalf("handler ran %d times across a partition", calls.Load())
	}

	// Healing the partition restores the path.
	u.Partition("svc", false)
	if err := u.Call("svc", "echo", &echoArgs{Msg: "back"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "back" {
		t.Fatalf("reply = %q", reply.Msg)
	}
}

func TestUnreliableDelay(t *testing.T) {
	n := NewMemNetwork()
	n.Bind("svc", newEchoServer(nil))
	u := NewUnreliable(n, 1)
	u.Delay(20 * time.Millisecond)

	start := time.Now()
	var reply echoReply
	if err := u.Call("svc", "echo", &echoArgs{}, &reply); err != nil {
		t.Fatal(err)
	}
	// Delay is uniform in [0, max); with one sample we can only bound
	// it above.
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("call took %v with 20ms max delay", d)
	}
}

func TestHandleDuplicateMethodPanics(t *testing.T) {
	srv := NewServer()
	Handle(srv, "m", func(a *echoArgs) (*echoReply, error) { return &echoReply{}, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate Handle to panic")
		}
	}()
	Handle(srv, "m", func(a *echoArgs) (*echoReply, error) { return &echoReply{}, nil })
}
