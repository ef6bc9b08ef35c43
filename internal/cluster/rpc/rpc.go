// Package rpc is the transport layer under the out-of-process MapReduce
// backend: a small gob-based RPC fabric, a jobtracker service that
// bridges the engine's Executor interface to remote worker processes,
// and the worker (tasktracker) loop itself.
//
// The fabric is deliberately minimal — one request, one reply, no
// streaming — because that is all the Hadoop control plane the paper's
// deployment relies on needs: worker registration, heartbeats, task
// assignment and completion, and ranged DFS reads for the shuffle. Two
// interchangeable transports implement it: MemNetwork (goroutine
// "processes" in one address space, still crossing a full gob
// round-trip so serialisation bugs surface in unit tests) and
// TCPNetwork (real worker processes, used by `gepeto worker` /
// `gepeto jobtracker`). The Unreliable wrapper injects drops, delays,
// duplicate deliveries and partitions into either.
package rpc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Transport delivers one RPC to the service bound at addr. args is
// gob-encoded on the way in; the service's reply is gob-decoded into
// reply (which must be a pointer). A Transport must be safe for
// concurrent Call.
type Transport interface {
	Call(addr, method string, args, reply any) error
}

// TransportError marks a failure of the transport itself — a refused
// connection, a dropped request or reply, a partition. The remote
// handler may or may not have executed, so only idempotent operations
// should retry on it. Errors returned by the remote handler never
// carry this type.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return e.Err.Error() }

func (e *TransportError) Unwrap() error { return e.Err }

func transportErrorf(format string, args ...any) error {
	return &TransportError{Err: fmt.Errorf(format, args...)}
}

// IsTransportError reports whether err is (or wraps) a transport-level
// failure, as opposed to an error the remote handler returned.
func IsTransportError(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// handler is the type-erased form a registered method: gob request body
// in, gob reply body out.
type handler func(body []byte) ([]byte, error)

// Server dispatches decoded requests to registered method handlers.
// One Server backs one service address (a jobtracker or a worker).
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handler
	// reg, when set via Instrument, receives per-method counters,
	// latency and payload-size histograms for every dispatch.
	reg *obs.Registry
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{handlers: make(map[string]handler)}
}

// Handle registers a typed method on the server. The wrapper owns all
// gob plumbing, so services are written against concrete args/reply
// structs. Registering a duplicate method panics.
func Handle[A, R any](s *Server, method string, fn func(*A) (*R, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: method %q registered twice", method))
	}
	s.handlers[method] = func(body []byte) ([]byte, error) {
		var args A
		if err := decode(body, &args); err != nil {
			return nil, fmt.Errorf("rpc: %s: bad request: %v", method, err)
		}
		reply, err := fn(&args)
		if err != nil {
			return nil, err
		}
		return encode(reply)
	}
}

// dispatch runs one request through the matching handler. A handler
// panic becomes an error reply: one malformed or hostile request must
// not take down the service (TCP handlers run on unrecovered
// connection goroutines).
func (s *Server) dispatch(method string, body []byte) ([]byte, error) {
	s.mu.RLock()
	h, ok := s.handlers[method]
	reg := s.reg
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rpc: unknown method %q", method)
	}
	if reg == nil {
		return runHandler(nil, method, h, body)
	}
	start := time.Now()
	out, err := runHandler(reg, method, h, body)
	s.observe(reg, method, len(body), len(out), err, time.Since(start))
	return out, err
}

// runHandler calls h, recovering a panic into an error and counting it
// in reg (when non-nil) as rpc_server_panics_total.
func runHandler(reg *obs.Registry, method string, h handler, body []byte) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("rpc: %s: handler panic: %v", method, p)
			if reg != nil {
				reg.Counter("rpc_server_panics_total", "Handler panics recovered into error replies, by method.",
					obs.Labels{"method": method}).Inc()
			}
		}
	}()
	return h(body)
}

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
