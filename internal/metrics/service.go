package metrics

import "time"

// Service is one network-facing component's instrumentation set — the
// serving-layer counterpart of Solver. The decomposition daemon
// (cmd/adecompd) updates one per endpoint family; like the solver set,
// every field is a handful of atomic operations, safe for concurrent use
// on the request path, and each field's metric tag is its JSON name.
type Service struct {
	// Requests counts requests admitted to the worker pool; OK/ClientError/
	// ServerError split the terminal statuses of handled requests.
	Requests    Counter `metric:"requests"`
	OK          Counter `metric:"ok"`
	ClientError Counter `metric:"client_error"`
	ServerError Counter `metric:"server_error"`

	// Shed counts admission-control rejections (429: the bounded queue was
	// full); Drained counts requests refused because the server was
	// draining (503 after SIGTERM).
	Shed    Counter `metric:"shed"`
	Drained Counter `metric:"drained"`

	// CacheHits/CacheMisses tally result-cache lookups; a hit skips the
	// solver stack entirely.
	CacheHits   Counter `metric:"cache_hits"`
	CacheMisses Counter `metric:"cache_misses"`

	// Degraded counts responses served from the heuristic fallback after
	// the Ising path failed; Retries counts solver re-attempts made by the
	// retry helper; Panics counts solver panics converted into structured
	// errors by the job recover boundary; BreakerOpen counts requests
	// short-circuited by an open circuit breaker.
	Degraded    Counter `metric:"degraded"`
	Retries     Counter `metric:"retries"`
	Panics      Counter `metric:"panics"`
	BreakerOpen Counter `metric:"breaker_open"`

	// QueueWait accumulates the time admitted requests spent queued before
	// a worker picked them up; Handle accumulates end-to-end handling time
	// (queue wait + solve + encode). Latency buckets Handle's observations
	// in microseconds for tail inspection.
	QueueWait Timer      `metric:"queue_wait_ns"`
	Handle    Timer      `metric:"handle_ns,mean_handle_ns"`
	Latency   *Histogram `metric:"latency_us"`
}

// ObserveHandled records one handled request: end-to-end latency plus the
// status-class tally. status is the HTTP status code written.
func (s *Service) ObserveHandled(d time.Duration, status int) {
	s.Handle.Observe(d)
	s.Latency.Observe(float64(d.Microseconds()))
	switch {
	case status >= 500:
		s.ServerError.Inc()
	case status >= 400:
		s.ClientError.Inc()
	default:
		s.OK.Inc()
	}
}

// ForService returns the named service's instrumentation set, creating it
// on first use. Like ForSolver, call once and keep the pointer.
func ForService(name string) *Service {
	return register(kindService, name, func() *Service {
		// 1 µs .. ~8.4 s in power-of-two buckets, like the solver latency.
		return &Service{Latency: NewHistogram(PowerOfTwoBounds(1, 24))}
	})
}
