package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// InProcess is a live Server bound to an ephemeral loopback port, with a
// typed Client pointed at it — the "real daemon" oracle the differential
// harness (internal/diffcheck) round-trips library results against, and a
// convenience for any test that wants the full HTTP surface without
// managing listeners. Close drains and shuts it down.
type InProcess struct {
	// Server is the underlying job daemon (workers already started).
	Server *Server
	// Client targets the bound address.
	Client *Client
	// BaseURL is the server root, e.g. "http://127.0.0.1:41234".
	BaseURL string

	hs *http.Server
	ln net.Listener
}

// StartInProcess builds a Server from cfg, starts its worker budget, and
// serves its HTTP surface on an ephemeral 127.0.0.1 port.
func StartInProcess(cfg Config) (*InProcess, error) {
	srv := New(cfg)
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: in-process listener: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	return &InProcess{
		Server:  srv,
		Client:  &Client{Base: base},
		BaseURL: base,
		hs:      hs,
		ln:      ln,
	}, nil
}

// Kill hard-closes the listener and every active connection without
// draining — the crash-injection hook the cluster harness and the
// node-crash diffcheck oracle use. In-flight worker goroutines keep
// running (and their results are simply unreachable), which is exactly
// what a router sees when a node dies mid-job: its parked waits drop and
// new forwards fail to connect. Safe to call more than once.
func (p *InProcess) Kill() error {
	return p.hs.Close()
}

// Close drains the server (bounded by timeout; 0 means 30s) and shuts the
// listener down. Safe to call once.
func (p *InProcess) Close(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_, derr := p.Server.Drain(ctx)
	serr := p.hs.Shutdown(ctx)
	if derr != nil {
		return derr
	}
	return serr
}
