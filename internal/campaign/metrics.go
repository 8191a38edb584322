package campaign

import (
	"sync/atomic"
	"time"
)

// Metrics are the service's counters, exposed as JSON at /metrics.
type Metrics struct {
	start   time.Time
	workers int

	CampaignsSubmitted atomic.Int64
	CampaignsResumed   atomic.Int64
	CampaignsCompleted atomic.Int64
	CampaignsCancelled atomic.Int64

	JobsEnqueued atomic.Int64
	finished     map[JobStatus]*atomic.Int64 // terminal jobs by status: jobs_<status>

	// busyNS accumulates wall clock spent executing jobs, a remote
	// worker's included; utilization divides it by workers × uptime.
	busyNS      atomic.Int64
	busyWorkers atomic.Int64
}

// NewMetrics starts a metrics set for `workers` in-process slots.
func NewMetrics(workers int) *Metrics {
	m := &Metrics{start: time.Now(), workers: workers, finished: map[JobStatus]*atomic.Int64{}}
	for _, st := range []JobStatus{JobDone, JobCached, JobFailed, JobQuarantined, JobCancelled} {
		m.finished[st] = new(atomic.Int64)
	}
	return m
}

// Snapshot renders the counters and gauges, at queue depth queueDepth.
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

// jobTimer tracks one running job.
func (m *Metrics) jobTimer() func() {
	t0 := time.Now()
	m.busyWorkers.Add(1)
	return func() {
		m.busyWorkers.Add(-1)
		m.busyNS.Add(time.Since(t0).Nanoseconds())
	}
}
