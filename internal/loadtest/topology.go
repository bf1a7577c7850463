package loadtest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"isinglut/internal/serve"
)

// Topology is an in-process multi-daemon fleet for churn experiments:
// one coordinator daemon fronting N peer daemons, every member on its
// own real TCP listener, with kill/restart controls per peer. It is the
// harness behind the loadtest topology mode (cmd/loadgen -topology) and
// the deterministic churn e2e — the same serving stack a production
// deployment runs, minus the separate processes.
type Topology struct {
	// Coordinator is the fronting daemon (dispatches sharded sub-solves
	// to the peers); CoordinatorURL its base URL.
	Coordinator    *serve.Server
	CoordinatorURL string

	peerCfg serve.Config
	peers   []*daemonProc
	coord   *daemonProc
}

// TopologyOptions configures StartTopology.
type TopologyOptions struct {
	// Peers is the fleet size (default 2).
	Peers int
	// PeerConfig is each peer daemon's config.
	PeerConfig serve.Config
	// CoordinatorConfig is the fronting daemon's config; the harness
	// fills Peers with the started fleet's URLs (via NormalizePeers).
	CoordinatorConfig serve.Config
}

// daemonProc is one daemon bound to one listener. The address survives a
// kill so a restart can rebind the same port — the fleet's member URLs
// are stable identities across churn.
type daemonProc struct {
	addr string
	srv  *http.Server
}

func startDaemon(cfg serve.Config, addr string) (*daemonProc, *serve.Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	s := serve.New(cfg)
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(lis) //nolint:errcheck // Serve returns on Close; nothing to report
	return &daemonProc{addr: lis.Addr().String(), srv: hs}, s, nil
}

// StartTopology boots the peer fleet, then the coordinator pointed at
// it. Call Close when done.
func StartTopology(opts TopologyOptions) (*Topology, error) {
	n := opts.Peers
	if n <= 0 {
		n = 2
	}
	top := &Topology{peerCfg: opts.PeerConfig}
	var urls []string
	for i := 0; i < n; i++ {
		d, _, err := startDaemon(opts.PeerConfig, "127.0.0.1:0")
		if err != nil {
			top.Close()
			return nil, fmt.Errorf("loadtest: starting peer %d: %w", i, err)
		}
		top.peers = append(top.peers, d)
		urls = append(urls, "http://"+d.addr)
	}

	cfg := opts.CoordinatorConfig
	peers, err := serve.NormalizePeers(urls, "")
	if err != nil {
		top.Close()
		return nil, err
	}
	cfg.Peers = peers
	coord, cs, err := startDaemon(cfg, "127.0.0.1:0")
	if err != nil {
		top.Close()
		return nil, fmt.Errorf("loadtest: starting coordinator: %w", err)
	}
	top.coord = coord
	top.Coordinator = cs
	top.CoordinatorURL = "http://" + coord.addr
	return top, nil
}

// PeerURL returns peer i's base URL (stable across kill/restart).
func (t *Topology) PeerURL(i int) string { return "http://" + t.peers[i].addr }

// KillPeer hard-stops peer i: the listener closes and every open
// connection is torn down, exactly what a SIGKILLed daemon looks like to
// the coordinator. Idempotent.
func (t *Topology) KillPeer(i int) error {
	if i < 0 || i >= len(t.peers) {
		return fmt.Errorf("loadtest: no peer %d", i)
	}
	return t.peers[i].srv.Close()
}

// RestartPeer brings peer i back on its original address with a fresh
// daemon (empty cache, cold pool — a real restart, not a resume).
func (t *Topology) RestartPeer(i int) error {
	if i < 0 || i >= len(t.peers) {
		return fmt.Errorf("loadtest: no peer %d", i)
	}
	_ = t.peers[i].srv.Close()
	// The old listener just closed; rebinding the same port can race the
	// kernel's teardown, so retry briefly.
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		d, _, err := startDaemon(t.peerCfg, t.peers[i].addr)
		if err == nil {
			t.peers[i] = d
			return nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("loadtest: restarting peer %d on %s: %w", i, t.peers[i].addr, lastErr)
}

// ProbePeers runs one synchronous probe sweep on the coordinator's
// fleet, stepping quarantine/readmission deterministically.
func (t *Topology) ProbePeers(ctx context.Context) {
	t.Coordinator.ProbePeersOnce(ctx)
}

// Close tears the whole topology down.
func (t *Topology) Close() {
	if t.coord != nil {
		_ = t.coord.srv.Close()
	}
	for _, p := range t.peers {
		_ = p.srv.Close()
	}
}
