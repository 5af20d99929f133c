// Command driftfeed replays synthetic dataset streams to a driftserve
// network-ingestion endpoint — the load generator and reference client
// for the wire protocol. Each tenant is one independent, endless camera
// stream (dataset.TenantStream: its own seed schedule, so tenants drift
// at different times, and a fresh seed every lap) driven
// by one connection with exactly-once delivery: frames are resent
// across reconnects and corruption NACKs until the server confirms
// them, a window of them at a time (a full queue at the server holds
// the sender back), and the tenant's last window is confirmed before
// driftfeed reports.
//
// Usage:
//
//	driftfeed [-addr localhost:9091] [-dataset bdd|detrac|tokyo|slow]
//	          [-scale 0.02] [-tenants 2] [-frames 200] [-prefix cam]
//	          [-fps 0] [-net-faults seed] [-v]
//
// -addr accepts a comma-separated address list for a replicated
// deployment (primary's ingest address first, standbys' after): when
// every connection attempt to the current address fails, the client
// rotates to the next and resumes its stream mid-sequence — the
// promoted standby's router adopts the in-flight sequence number.
//
// With -net-faults a seeded wire-fault schedule is replayed against
// each tenant's transmissions: corrupted payload bytes (rejected by
// the server's CRC check and resent) and torn writes (the connection
// drops mid-message and the client reconnects and resends). The
// delivered stream is identical to a clean run's — the faults cost
// retries, never frames.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync"
	"time"

	"videodrift/internal/dataset"
	"videodrift/internal/faults"
	"videodrift/internal/ingest"
)

func main() {
	addr := flag.String("addr", "localhost:9091", "driftserve -ingest-addr to feed (TCP wire protocol); a comma-separated list fails over to the next address when a connection is refused (primary first, standbys after)")
	dsName := flag.String("dataset", "bdd", "stream to replay: bdd, detrac, tokyo, slow")
	scale := flag.Float64("scale", 0.02, "dataset stream scale (1.0 = paper sizes)")
	tenants := flag.Int("tenants", 2, "concurrent tenant streams")
	frames := flag.Int("frames", 200, "frames to deliver per tenant")
	prefix := flag.String("prefix", "cam", "tenant id prefix (tenants are <prefix>-0 .. <prefix>-N-1)")
	fps := flag.Float64("fps", 0, "per-tenant send rate limit in frames/second (0 = unthrottled)")
	netFaults := flag.Int64("net-faults", 0, "replay a seeded wire-fault schedule per tenant: corrupt bytes, torn writes (0 = clean)")
	verbose := flag.Bool("v", false, "log per-tenant progress")
	flag.Parse()

	if *tenants < 1 || *frames < 1 {
		fmt.Fprintln(os.Stderr, "driftfeed: -tenants and -frames must be >= 1")
		flag.Usage()
		os.Exit(2)
	}
	var interval time.Duration
	if *fps > 0 {
		interval = time.Duration(float64(time.Second) / *fps)
	}
	ds, err := dataset.ByName(*dsName, *scale)
	if err != nil {
		log.Fatal(err)
	}

	type result struct {
		tenant string
		stats  ingest.ClientStats
		sent   int
		err    error
	}
	results := make([]result, *tenants)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := *prefix + "-" + strconv.Itoa(i)
			results[i].tenant = tenant
			next := ds.TenantStream(i)

			var inj *faults.NetInjector
			if *netFaults != 0 {
				inj = faults.NewNetInjector(faults.GenerateNet(
					*netFaults+int64(i), *frames*2, 0.02, 0.01))
			}
			c, err := ingest.Dial(ingest.ClientConfig{
				Addr:    *addr,
				Tenant:  tenant,
				TxFault: inj.Tx,
			})
			if err != nil {
				results[i].err = err
				return
			}
			defer c.Close()
			for n := 0; n < *frames; n++ {
				if interval > 0 && n > 0 {
					time.Sleep(interval)
				}
				if err := c.Send(next()); err != nil {
					results[i].stats = c.Stats()
					results[i].sent = n
					results[i].err = err
					return
				}
				results[i].sent = n + 1
				if *verbose && (n+1)%100 == 0 {
					fmt.Fprintf(os.Stderr, "%s: %d/%d frames sent\n", tenant, n+1, *frames)
				}
			}
			// The last frames of a window are written, not yet confirmed.
			results[i].err = c.Flush()
			results[i].stats = c.Stats()
		}(i)
	}
	wg.Wait()

	elapsed := time.Since(start)
	failed := 0
	delivered := 0
	for _, r := range results {
		delivered += r.sent
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "driftfeed: tenant %s failed after %d frames: %v\n", r.tenant, r.sent, r.err)
			continue
		}
		fmt.Printf("tenant %s: delivered %d, sent %d, acked %d, nacks %d, retries %d, reconnects %d, failovers %d\n",
			r.tenant, r.sent, r.stats.Sent, r.stats.Acked, r.stats.Nacks, r.stats.Retries, r.stats.Reconnects, r.stats.Failovers)
	}
	fmt.Printf("driftfeed: %d tenants, %d frames delivered in %v, %d failed\n",
		*tenants, delivered, elapsed.Round(time.Millisecond), failed)
	if failed > 0 {
		os.Exit(1)
	}
}
