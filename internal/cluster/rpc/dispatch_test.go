package rpc

import (
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// panicsRecovered sums rpc_server_panics_total over every method.
func panicsRecovered(reg *obs.Registry) int64 {
	var n int64
	for _, p := range reg.Snapshot() {
		if p.Name == "rpc_server_panics_total" {
			n += p.Value
		}
	}
	return n
}

// TestHandlerPanicBecomesErrorReply checks, over both transports, that
// a panicking handler yields a handler error (not a transport error),
// is counted, and leaves the server answering the next call.
func TestHandlerPanicBecomesErrorReply(t *testing.T) {
	newServer := func() (*Server, *obs.Registry) {
		srv := newEchoServer(nil)
		Handle(srv, "boom", func(a *echoArgs) (*echoReply, error) {
			panic("boom: " + a.Msg)
		})
		reg := obs.NewRegistry()
		srv.Instrument(reg)
		return srv, reg
	}
	check := func(t *testing.T, tr Transport, addr string, reg *obs.Registry) {
		var reply echoReply
		err := tr.Call(addr, "boom", &echoArgs{Msg: "x"}, &reply)
		if err == nil || !strings.Contains(err.Error(), "rpc: boom: handler panic: boom: x") {
			t.Fatalf("panicking call: err = %v, want a handler panic error", err)
		}
		if IsTransportError(err) {
			t.Fatalf("handler panic classified as transport error: %v", err)
		}
		if n := panicsRecovered(reg); n != 1 {
			t.Fatalf("rpc_server_panics_total = %d, want 1", n)
		}
		if err := tr.Call(addr, "echo", &echoArgs{Msg: "still here"}, &reply); err != nil || reply.Msg != "still here" {
			t.Fatalf("call after panic: reply %q, err %v", reply.Msg, err)
		}
	}

	t.Run("mem", func(t *testing.T) {
		srv, reg := newServer()
		n := NewMemNetwork()
		n.Bind("svc", srv)
		check(t, n, "svc", reg)
	})
	t.Run("tcp", func(t *testing.T) {
		srv, reg := newServer()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() { _ = Serve(ln, srv) }()
		check(t, &TCPNetwork{}, ln.Addr().String(), reg)
	})
}

// FuzzDispatch feeds arbitrary request bodies to every method of a
// fresh jobtracker and a fresh worker. A body that does not decode
// must be refused with an error; one that does must be handled
// without a panic — the panic counter stays 0, so the dispatcher's
// recovery cannot hide a handler bug.
func FuzzDispatch(f *testing.F) {
	seeds := []any{
		&registerArgs{Node: "node-00", Addr: "worker", Slots: 2},
		&heartbeatArgs{Node: "node-00", Busy: 1, Epoch: 1, MetricsSeq: 1,
			Metrics: []obs.MetricPoint{{Name: "m", Type: "counter", Value: 1}}},
		&completeArgs{Job: "job", TaskID: "map-0000", Node: "node-00"},
		&eventsArgs{Events: []obs.Event{{Type: obs.WorkerTaskDone, Node: "node-00", Time: time.Unix(1, 0)}}},
		&dfsCreateArgs{Path: "out/f", Data: []byte("data"), Node: "node-00"},
		&dfsReadArgs{Path: "in/f", Off: 3, Len: 8},
		&dfsSizeArgs{Path: "in/f"},
		&assignArgs{Job: mapreduce.JobWire{Name: "job"}, Phase: "map", TaskID: "map-0000"},
		&shutdownArgs{},
	}
	for _, s := range seeds {
		body, err := encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := cluster.NewUniform(2, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := dfs.New(c, dfs.Config{ChunkSize: 16, Replication: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Create("in/f", []byte("0123456789abcdefghijklmnopqrstuvwxyz"), ""); err != nil {
			t.Fatal(err)
		}
		mem := NewMemNetwork()
		jtReg, wReg := obs.NewRegistry(), obs.NewRegistry()
		jt := NewJobtracker(JobtrackerConfig{Cluster: c, FS: fs, Transport: mem, Registry: jtReg})
		defer jt.Stop()
		w := NewWorker(WorkerConfig{
			Node: "node-00", Transport: mem, JobtrackerAddr: "jt", Addr: "worker", Registry: wReg,
		})
		defer w.Stop()
		for _, srv := range []*Server{jt.Server(), w.Server()} {
			methods := make([]string, 0, len(srv.handlers))
			for m := range srv.handlers {
				methods = append(methods, m)
			}
			sort.Strings(methods)
			for _, m := range methods {
				if _, err := srv.dispatch(m, body); err != nil && strings.Contains(err.Error(), "handler panic") {
					t.Errorf("%s: %v", m, err)
				}
			}
		}
		if n := panicsRecovered(jtReg) + panicsRecovered(wReg); n != 0 {
			t.Fatalf("%d handler panics recovered", n)
		}
	})
}
