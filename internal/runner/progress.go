package runner

import (
	"fmt"
	"io"
	"time"
)

// NewProgress returns a Progress callback that streams one line per
// finished job to w (the -v output of the CLIs), plus an indented line
// with the Event.Engine text of a job that ran locally:
//
//	[ 3/45] fig7a/CCFIT seed=1            1.52s  (elapsed 4.1s, eta 37s)
//	[ 4/45] fig7b/CCFIT seed=1           cached  (elapsed 4.1s, eta 29s)
func NewProgress(w io.Writer) func(Event) {
	return func(ev Event) {
		var outcome string
		switch ev.Type {
		case JobStart:
			return
		case JobDone:
			outcome = fmtDur(ev.JobElapsed)
		case JobCached:
			outcome = "cached"
		case JobFailed:
			outcome = "FAILED"
		case JobCacheCorrupt:
			fmt.Fprintf(w, "        %s: %v (recomputing)\n", ev.Job, ev.Err)
			return
		}
		fmt.Fprintf(w, "[%*d/%d] %-32s %9s  (elapsed %s, eta %s)\n",
			digits(ev.Total), ev.Done, ev.Total, ev.Job, outcome,
			fmtDur(ev.Elapsed), fmtDur(ev.ETA))
		if ev.Type == JobFailed {
			fmt.Fprintf(w, "        %v\n", ev.Err)
		}
		if ev.Engine != "" {
			fmt.Fprintf(w, "        %s\n", ev.Engine)
		}
	}
}

func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0s"
	case d < time.Second:
		return d.Round(time.Millisecond).String()
	case d < time.Minute:
		return d.Round(10 * time.Millisecond).String()
	default:
		return d.Round(time.Second).String()
	}
}
