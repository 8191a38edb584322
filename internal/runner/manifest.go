package runner

import (
	"encoding/json"
	"os"
	"time"
)

// Manifest is the machine-readable record of one campaign, written as
// JSON next to the CSVs so a rendered figure set documents exactly
// which runs (and cache entries) produced it.
type Manifest struct {
	Tool      string        `json:"tool,omitempty"`
	Module    string        `json:"module_version"`
	StartedAt time.Time     `json:"started_at"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Workers   int           `json:"workers"`
	CacheDir  string        `json:"cache_dir,omitempty"`
	Jobs      int           `json:"jobs"`
	Cached    int           `json:"cached"`
	Failed    int           `json:"failed"`
	Cancelled int           `json:"cancelled,omitempty"`
	Runs      []ManifestRun `json:"runs"`
}

// ManifestRun records one job's outcome.
type ManifestRun struct {
	Experiment     string  `json:"experiment"`
	Scheme         string  `json:"scheme"`
	Seed           int64   `json:"seed"`
	CacheKey       string  `json:"cache_key,omitempty"`
	Status         string  `json:"status"` // an Outcome
	ElapsedMS      float64 `json:"elapsed_ms"`
	Attempts       int     `json:"attempts,omitempty"`
	Error          string  `json:"error,omitempty"`
	CacheError     string  `json:"cache_error,omitempty"` // it ran; storing its result failed
	MeanNormalized float64 `json:"mean_normalized,omitempty"`
	DeliveredPkts  int64   `json:"delivered_pkts,omitempty"`
	Faults         string  `json:"faults,omitempty"`      // the fault script's name
	Diagnostics    string  `json:"diagnostics,omitempty"` // a quarantined job's snapshot, truncated
}

// maxDiagnostics bounds the snapshot carried per manifest run.
const maxDiagnostics = 4096

// NewManifest summarises a finished campaign.
func NewManifest(tool string, opt Options, startedAt time.Time, results []JobResult) *Manifest {
	m := &Manifest{
		Tool:      tool,
		Module:    ModuleVersion(),
		StartedAt: startedAt,
		ElapsedMS: float64(time.Since(startedAt).Milliseconds()),
		Workers:   opt.Workers,
		Jobs:      len(results),
	}
	if opt.Cache != nil {
		m.CacheDir = opt.Cache.Dir()
	}
	for _, r := range results {
		outcome := r.Outcome()
		run := ManifestRun{
			Experiment: r.Job.Exp.ID,
			Scheme:     r.Job.Scheme,
			Seed:       r.Job.Seed,
			CacheKey:   r.Key,
			Status:     string(outcome),
			ElapsedMS:  r.ElapsedMS(),
			Attempts:   r.Attempts,
		}
		if r.Job.Faults != nil {
			run.Faults = r.Job.Faults.Name
		}
		if r.Err != nil {
			run.Error = r.Err.Error()
		}
		if r.CacheErr != nil {
			run.CacheError = r.CacheErr.Error()
		}
		if run.Diagnostics = r.Diagnostics; len(run.Diagnostics) > maxDiagnostics {
			run.Diagnostics = run.Diagnostics[:maxDiagnostics] + "\n... (truncated)"
		}
		switch outcome {
		case OutcomeQuarantined, OutcomeFailed:
			m.Failed++
		case OutcomeCancelled:
			// An interrupted campaign still writes a valid manifest.
			m.Cancelled++
		case OutcomeCached:
			m.Cached++
		}
		if r.Result != nil {
			run.MeanNormalized = r.Result.Summary.MeanNormalized
			run.DeliveredPkts = r.Result.Summary.DeliveredPkts
		}
		m.Runs = append(m.Runs, run)
	}
	return m
}

// Write stores the manifest as indented JSON at path.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
