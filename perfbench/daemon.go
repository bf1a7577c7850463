package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"isinglut/internal/serve"
)

// reqHeader carries the benchmark's request id, so a handler span joins
// the client's record of the same request.
const reqHeader = "X-Bench-Request"

// daemon is one in-process server on a loopback listener, booted the way
// cmd/adecompd boots: serve.New, then its Handler behind an HTTP server.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
	stop context.CancelFunc // ends the peer probe loop
}

// listen reserves a loopback port before the server exists, so a
// coordinator can validate its peer list against its own address.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// boot serves cfg on ln; wrap, when non-nil, puts the benchmark's span
// middleware around the server's handler.
func boot(ln net.Listener, cfg serve.Config, wrap func(http.Handler) http.Handler) *daemon {
	cfg.Addr = ln.Addr().String()
	srv := serve.New(cfg)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.StartPeerProbes(ctx)
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + cfg.Addr, done: make(chan struct{}), stop: cancel}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return d
}

// close stops accepting, waits for in-flight requests, and waits for the
// serving goroutine to return.
func (d *daemon) close() {
	d.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A shutdown that times out leaves a request running; the benchmark
	// has already read every answer, so there is nothing to report.
	d.hs.Shutdown(ctx)
	<-d.done
}

// newClient returns a client holding at most conns keep-alive
// connections to any one daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte, req string) (int, []byte, error) {
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(reqHeader, req)
	res, err := c.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return res.StatusCode, nil, fmt.Errorf("reading response: %w", err)
	}
	return res.StatusCode, b, nil
}

// handlerSpans records one span per request around a daemon's handler.
// A root handler also becomes the recorder's current root, so spans the
// request causes on other daemons nest under it.
func handlerSpans(rec *recorder, name string, root bool) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := rec.begin(name, r.Header.Get(reqHeader), 0)
			if root {
				rec.setCurrent(id)
			}
			h.ServeHTTP(w, r)
			if root {
				rec.clearCurrent(id)
			}
			rec.end(id)
		})
	}
}
