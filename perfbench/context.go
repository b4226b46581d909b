package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"
)

// runContext is what a reader needs to judge a run's numbers: the
// machine, the Go runtime, the ops the run attempted and failed, and
// how much CPU the host stole from this VM while it ran.
type runContext struct {
	start      time.Time
	stealStart int64 // -1 when /proc/stat is unreadable
}

func newRunContext() *runContext {
	return &runContext{start: time.Now(), stealStart: stealTicks()}
}

// logf reports progress with the time since the run started.
func (c *runContext) logf(format string, args ...any) {
	logf("%.2fs: "+format, append([]any{time.Since(c.start).Seconds()}, args...)...)
}

// finish prints the context line that precedes the result JSON.
func (c *runContext) finish(a phase) {
	steal := int64(-1)
	if end := stealTicks(); c.stealStart >= 0 && end >= 0 {
		steal = end - c.stealStart
	}
	ctx := map[string]any{
		"context":       true,
		"nproc":         goruntime.NumCPU(),
		"gomaxprocs":    goruntime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    goruntime.Version(),
		"run_seconds":   time.Since(c.start).Seconds(),
		"steal_ticks":   steal,
		"ops_attempted": a.attempted,
		"ops_failed":    a.failed,
		"ops_wrong":     a.wrong,
	}
	if a.firstErr != nil {
		ctx["first_error"] = a.firstErr.Error()
	}
	line, _ := json.Marshal(ctx)
	fmt.Println(string(line))
}

// stealTicks returns the aggregate steal time (USER_HZ ticks) of the
// "cpu" line of /proc/stat, or -1.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, err := strconv.ParseInt(fields[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak memory: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak memory: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak memory: no VmHWM in /proc/self/status")
}
