package main

import "fmt"

// processed is the number of clocked frames the server had processed at
// the last poll.
func (r *driveResult) processed() int {
	if len(r.polls) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.polls[len(r.polls)-1].processed {
		if p > 0 {
			n += int(p) - 1 // less the attach frame
		}
	}
	return n
}

// stall is a run of polls, stallMin or longer, in which the server
// processed nothing: a training holding the pump.
type stall struct {
	from, to int64   // ns since the clock started
	cpuS     float64 // server CPU spent inside it
}

// stalls lists the run's stalls. How many a run holds varies with the
// seed far more than with anything a change to the program does, so the
// per-frame metrics are taken over the rest of the window and the stalls
// are measured per stall (serve.stall_*, per-layer). Between them every
// CPU second of the window is in one number.
func (r *driveResult) stalls() []stall {
	total := func(p poll) (n int64) {
		for _, v := range p.processed {
			n += v
		}
		return n
	}
	var out []stall
	for i := 1; i < len(r.polls); {
		j := i
		for j < len(r.polls) && total(r.polls[j]) == total(r.polls[i-1]) {
			j++
		}
		// polls[i-1 .. j-1] saw no progress.
		first, last := r.polls[i-1], r.polls[j-1]
		if last.at-first.at >= stallMin {
			out = append(out, stall{first.at, last.at, last.cpuS - first.cpuS})
		}
		i = j + 1
	}
	return out
}

// endToEndMetrics fills in what a user of the system sees. A metric
// without a sample is left out and returned as an error, not reported as
// 0: no workload is meant to have a run without a frame sent on schedule.
func endToEndMetrics(rec *workloadRecord, r *driveResult) error {
	frames := r.processed()
	if frames == 0 {
		return fmt.Errorf("the server processed no frame")
	}
	stalls := r.stalls()
	activeCPUS := r.cpuS
	for _, s := range stalls {
		activeCPUS -= s.cpuS
		rec.StallsMS = append(rec.StallsMS, float64(s.to-s.from)/1e6)
	}
	rec.Metrics["cpu_us_per_frame"] = measurement{activeCPUS * 1e6 / float64(frames), "us", frames}
	// Latency of the frames that went out on schedule (to within the
	// probe's resolution) and that no stall touched. The ones a stall
	// held up, and the ones queued behind a sender sleeping off a NACK,
	// are the tail, which verdict_ms_p99 (per-layer) reports over every
	// frame.
	var lat []float64
	for i, t := range r.tenants {
		si := 0
		for k, v := range r.verdicts(i) {
			if v < 0 || t.sent[k]-t.due[k] >= pollInterval {
				continue
			}
			for si < len(stalls) && stalls[si].to <= t.due[k] {
				si++
			}
			if si < len(stalls) && stalls[si].from < v {
				continue
			}
			lat = append(lat, float64(v-t.due[k])/1e6)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no frame went out on schedule and clear of a stall: verdict_ms_p50 has no sample")
	}
	rec.Metrics["verdict_ms_p50"] = measurement{median(lat), "ms", len(lat)}
	return nil
}

// tailQuantile is 0.99 when at least ten samples lie beyond it, and the
// highest quantile that has ten beyond it otherwise.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 10 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// layerMetrics fills in the client-side layer metrics of a traced drive.
func layerMetrics(rec *workloadRecord, traced *driveResult) {
	var ack, wait, late, rtt []float64
	var genNS, sentTx, nacks int64
	n := 0
	for i, t := range traced.tenants {
		v := traced.verdicts(i)
		for k := range t.acked {
			ack = append(ack, float64(t.acked[k]-t.sent[k])/1e3)
			late = append(late, float64(t.sent[k]-t.due[k])/1e6)
			if v[k] >= 0 {
				wait = append(wait, float64(v[k]-t.acked[k])/1e6)
			}
		}
		genNS += t.genNS
		sentTx += t.stats.Sent
		nacks += t.stats.Nacks
		n += len(t.acked)
	}
	lagMax := 0
	for _, p := range traced.polls {
		rtt = append(rtt, float64(p.rttNS)/1e3)
		if p.lagGens > lagMax {
			lagMax = p.lagGens
		}
	}
	q := tailQuantile(n)
	rec.Metrics["ingest.ack_us_p50"] = measurement{median(ack), "us", n}
	rec.Metrics["ingest.ack_us_p99"] = measurement{quantile(ack, q), "us", n}
	rec.Metrics["ingest.queue_wait_ms_p50"] = measurement{median(wait), "ms", len(wait)}
	rec.Metrics["ingest.queue_wait_ms_p99"] = measurement{quantile(wait, q), "ms", len(wait)}
	rec.Metrics["ingest.nack_share"] = measurement{float64(nacks) / float64(sentTx), "ratio", int(sentTx)}
	rec.Metrics["ingest.drain_ms"] = measurement{float64(traced.drain) / 1e6, "ms", 1}
	rec.Metrics["loadgen.next_us"] = measurement{float64(genNS) / 1e3 / float64(n), "us", n}
	rec.Metrics["loadgen.late_ms_p99"] = measurement{quantile(late, q), "ms", n}
	rec.Metrics["serve.healthz_us"] = measurement{median(rtt), "us", len(rtt)}
	rec.Metrics["replica.lag_gens_max"] = measurement{float64(lagMax), "count", len(traced.polls)}
	frames := traced.processed()
	var lat []float64
	for i, t := range traced.tenants {
		for k, v := range traced.verdicts(i) {
			if v < 0 {
				v = int64(traced.window) // never seen processed: as late as the window allows
			}
			lat = append(lat, float64(v-t.due[k])/1e6)
		}
	}
	stalledNS := int64(0)
	stalls := traced.stalls()
	var stallMS, stallCPUMS []float64
	for _, s := range stalls {
		stalledNS += s.to - s.from
		stallMS = append(stallMS, float64(s.to-s.from)/1e6)
		stallCPUMS = append(stallCPUMS, s.cpuS*1e3)
	}
	rec.Metrics["verdict_ms_p99"] = measurement{quantile(lat, q), "ms", len(lat)}
	rec.Metrics["serve.frames_per_s"] = measurement{float64(frames) / traced.window.Seconds(), "1/s", frames}
	rec.Metrics["serve.cpu_us_per_frame_total"] = measurement{traced.cpuS * 1e6 / float64(frames), "us", frames}
	rec.Metrics["serve.stall_ms_p50"] = measurement{median(stallMS), "ms", len(stalls)}
	rec.Metrics["serve.stall_cpu_ms_p50"] = measurement{median(stallCPUMS), "ms", len(stalls)}
	rec.Metrics["serve.stall_share"] = measurement{float64(stalledNS) / float64(traced.window), "ratio", len(stalls)}
	rec.Metrics["replica.standby_cpu_us_per_frame"] = measurement{traced.sbCPUS * 1e6 / float64(frames), "us", frames}
}
