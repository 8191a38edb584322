package campaign

import (
	"sync/atomic"
	"time"
)

// Metrics are the service's expvar-style counters, exposed as JSON at
// /metrics. All fields are monotonic counters except the gauges the
// scheduler derives live (queue depth, busy workers).
type Metrics struct {
	start   time.Time
	workers int

	CampaignsSubmitted atomic.Int64
	CampaignsResumed   atomic.Int64
	CampaignsCompleted atomic.Int64
	CampaignsCancelled atomic.Int64

	JobsEnqueued atomic.Int64
	// finished counts terminal jobs by status, shown as jobs_<status>:
	// done is a fresh simulation that finished ok, cached one served from
	// the shared result cache.
	finished map[JobStatus]*atomic.Int64

	// busyNS accumulates worker wall-clock spent executing jobs; the
	// utilization gauge divides it by workers × uptime.
	busyNS      atomic.Int64
	busyWorkers atomic.Int64
}

// NewMetrics starts a metrics set for a pool of `workers` workers.
func NewMetrics(workers int) *Metrics {
	m := &Metrics{start: time.Now(), workers: workers, finished: map[JobStatus]*atomic.Int64{}}
	for _, st := range []JobStatus{JobDone, JobCached, JobFailed, JobQuarantined, JobCancelled} {
		m.finished[st] = new(atomic.Int64)
	}
	return m
}

// Snapshot renders the counters plus derived gauges. queueDepth is the
// scheduler's current queue length (passed in so Metrics itself stays
// lock-free).
func (m *Metrics) Snapshot(queueDepth int) map[string]any {
	uptime := time.Since(m.start)
	done := m.finished[JobDone].Load()
	cached := m.finished[JobCached].Load()
	hitRate := 0.0
	if done+cached > 0 {
		hitRate = float64(cached) / float64(done+cached)
	}
	util := 0.0
	if m.workers > 0 && uptime > 0 {
		util = float64(m.busyNS.Load()) / (float64(uptime.Nanoseconds()) * float64(m.workers))
	}
	snap := map[string]any{
		"uptime_seconds":      uptime.Seconds(),
		"workers":             m.workers,
		"busy_workers":        m.busyWorkers.Load(),
		"worker_utilization":  util,
		"queue_depth":         queueDepth,
		"campaigns_submitted": m.CampaignsSubmitted.Load(),
		"campaigns_resumed":   m.CampaignsResumed.Load(),
		"campaigns_completed": m.CampaignsCompleted.Load(),
		"campaigns_cancelled": m.CampaignsCancelled.Load(),
		"jobs_enqueued":       m.JobsEnqueued.Load(),
		"cache_hit_rate":      hitRate,
	}
	for st, n := range m.finished {
		snap["jobs_"+string(st)] = n.Load()
	}
	return snap
}

// jobTimer tracks one job's occupancy of a worker.
func (m *Metrics) jobTimer() func() {
	t0 := time.Now()
	m.busyWorkers.Add(1)
	return func() {
		m.busyWorkers.Add(-1)
		m.busyNS.Add(time.Since(t0).Nanoseconds())
	}
}
