package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// gcMeter measures the share of CPU time the garbage collector took
// between start and stop.
type gcMeter struct{ gc, total float64 }

func cpuSample() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startGC() gcMeter {
	gc, total := cpuSample()
	return gcMeter{gc, total}
}

func (m gcMeter) share() float64 {
	gc, total := cpuSample()
	if total <= m.total {
		return 0
	}
	return (gc - m.gc) / (total - m.total)
}

// stealMeter measures the share of this machine's CPU time the
// hypervisor gave to other guests (the steal column of /proc/stat). It
// does not enter any metric; the table prints it so that a run slowed by
// a busy host can be told from a slower program.
type stealMeter struct{ steal, total float64 }

func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func startSteal() stealMeter {
	s, t := cpuTimes()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTimes()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow boot does not move it.
const setupRepeats = 3

// measureSetup runs setup setupRepeats times, closing all but the last
// environment, and returns that one with the median set-up time.
func measureSetup[E any](setup func() (E, error), closeEnv func(E)) (E, float64, error) {
	var env E
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeEnv(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(secs), nil
}
