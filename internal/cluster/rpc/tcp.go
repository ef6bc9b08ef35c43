package rpc

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"time"
)

// defaultCallTimeout bounds one request/reply exchange: the client's
// default TCPNetwork.CallTimeout, and the server's read deadline for
// the request it answers.
const defaultCallTimeout = 30 * time.Second

// Server-side request limits. A peer that stalls mid-request or
// streams an unbounded request must not pin a goroutine and its
// buffer forever, so the server reads a request within
// serverReadTimeout and at most maxRequestBytes of it — larger than
// any DFS file a task ships through dfs.create here. Variables only so
// tests can shrink them; they are not options.
var (
	serverReadTimeout       = defaultCallTimeout
	maxRequestBytes   int64 = 1 << 30
)

// wireRequest / wireResponse frame one RPC on a TCP connection. The
// method and the gob-encoded body travel as one gob value each way;
// a handler error crosses as a string (errors are values here, not
// types — callers match on message content only for diagnostics).
type wireRequest struct {
	Method string
	Body   []byte
}

type wireResponse struct {
	Err  string
	Body []byte
}

// TCPNetwork is the real-process transport: one TCP connection per
// call, one call per connection. Dial-per-call is deliberately naive —
// the control plane is low-rate (heartbeats, assignments, completions)
// and bulk data moves through ranged DFS reads, so connection reuse
// buys little at the cost of pool bookkeeping.
type TCPNetwork struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds one full request/reply exchange once
	// connected (default 30s — long enough for a worker-side task
	// assignment ack under load, far shorter than a task itself, which
	// completes via a separate jt.complete call).
	CallTimeout time.Duration
}

func (n *TCPNetwork) dialTimeout() time.Duration {
	if n.DialTimeout > 0 {
		return n.DialTimeout
	}
	return 2 * time.Second
}

func (n *TCPNetwork) callTimeout() time.Duration {
	if n.CallTimeout > 0 {
		return n.CallTimeout
	}
	return defaultCallTimeout
}

// Call implements Transport.
func (n *TCPNetwork) Call(addr, method string, args, reply any) error {
	body, err := encode(args)
	if err != nil {
		return fmt.Errorf("rpc: %s %s: encode: %v", addr, method, err)
	}
	conn, err := net.DialTimeout("tcp", addr, n.dialTimeout())
	if err != nil {
		return transportErrorf("rpc: %s: %v", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(n.callTimeout())); err != nil {
		return transportErrorf("rpc: %s: %v", addr, err)
	}
	if err := gob.NewEncoder(conn).Encode(wireRequest{Method: method, Body: body}); err != nil {
		return transportErrorf("rpc: %s %s: send: %v", addr, method, err)
	}
	var resp wireResponse
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		return transportErrorf("rpc: %s %s: recv: %v", addr, method, err)
	}
	if resp.Err != "" {
		return fmt.Errorf("%s", resp.Err)
	}
	if err := decode(resp.Body, reply); err != nil {
		return fmt.Errorf("rpc: %s %s: decode reply: %v", addr, method, err)
	}
	return nil
}

// Serve accepts connections on ln and dispatches each as one RPC on
// srv, until ln is closed. It blocks; run it in a goroutine.
func Serve(ln net.Listener, srv *Server) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, srv)
	}
}

func serveConn(conn net.Conn, srv *Server) {
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(serverReadTimeout)); err != nil {
		return
	}
	var req wireRequest
	if err := gob.NewDecoder(io.LimitReader(conn, maxRequestBytes)).Decode(&req); err != nil {
		// Framing failure, a stalled peer or an oversized request:
		// nothing valid to reply to, and nothing is dispatched.
		return
	}
	var resp wireResponse
	out, err := srv.dispatch(req.Method, req.Body)
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.Body = out
	}
	// The reply either lands or the caller times out and retries; a
	// one-shot connection has nobody else to tell.
	_ = gob.NewEncoder(conn).Encode(resp)
}
