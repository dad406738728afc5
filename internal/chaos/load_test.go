package chaos

import (
	"reflect"
	"testing"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
)

// kvLoadOpts is the chaos KV scenario: 4 shard servers, 4 open-loop
// clients, 120 requests at 300k req/s with a 50/50 read/write mix.
func kvLoadOpts(shipping bool, slo *load.SLO) workloads.ServiceOpts {
	return workloads.ServiceOpts{
		Requests:  120,
		Rate:      300_000,
		WriteFrac: 0.5,
		Shipping:  shipping,
		SLOOut:    slo,
	}
}

// kvLoadCfg composes the KV scenario with a mid-traffic server crash:
// rank 1 (a shard owner) dies at 80µs — after the setup barrier, well
// inside the ~420µs serving window — and the detector declares it dead
// a few heartbeats later.
func kvLoadCfg(seed int64, shards int) caf.Config {
	return caf.Config{
		Images: 8,
		Seed:   seed,
		Shards: shards,
		Faults: &caf.FaultPlan{
			Seed:  seed,
			Crash: map[int]caf.Time{1: 80 * caf.Microsecond},
		},
		FailureDetector: detectorOn(),
	}
}

// TestKVServiceCrashTypedErrors is the service-traffic crash
// acceptance row: with a shard server crashed mid-traffic, both KV
// protocols must settle *every* request — each lost request failing
// with a typed ImageFailedError blaming the dead rank — while the run
// terminates cleanly (no deadlock, no machine-level abort: failure is
// absorbed at request granularity). The variants differ in blast
// radius, and the sweep pins that too: function shipping keeps
// completing requests on surviving shards after the crash, while the
// lock protocol's reply chains may depend on the dead image, so all of
// its post-crash requests fail typed.
func TestKVServiceCrashTypedErrors(t *testing.T) {
	for _, shipping := range []bool{false, true} {
		name := "locks"
		if shipping {
			name = "shipping"
		}
		t.Run(name, func(t *testing.T) {
			var slo load.SLO
			res, err := workloads.KVService(kvLoadCfg(7, 0), kvLoadOpts(shipping, &slo))
			if err != nil {
				t.Fatalf("crash run did not terminate cleanly: %v", err)
			}
			if slo.Completed+slo.Failed != slo.Requests {
				t.Fatalf("requests unsettled: done=%d fail=%d of %d", slo.Completed, slo.Failed, slo.Requests)
			}
			if slo.Failed == 0 {
				t.Fatal("crash lost no requests — scenario not exercising the failure path")
			}
			if slo.Completed == 0 {
				t.Fatal("no request completed — service never came up")
			}
			for rank := range slo.LostTo {
				if rank != 1 {
					t.Errorf("typed error blames rank %d; only rank 1 died", rank)
				}
			}
			if got := int64(0); true {
				for _, n := range slo.LostTo {
					got += n
				}
				if got != slo.Failed {
					t.Errorf("LostTo accounts %d of %d failures", got, slo.Failed)
				}
			}
			// Exactly the crashed rank is declared dead; err == nil above
			// already proved no surviving image's main aborted (failure
			// stayed request-granular).
			if res.Report.ImagesFailed != 1 {
				t.Errorf("ImagesFailed = %d, want 1 (the crashed rank)", res.Report.ImagesFailed)
			}
			// Function shipping must keep serving after the crash: more
			// than the pre-crash prefix completes. The crash lands ~80µs
			// into a ~420µs schedule, so ≥half completing proves it.
			if shipping && slo.Completed*2 < slo.Requests {
				t.Errorf("shipping variant completed only %d/%d — did not keep serving through the crash",
					slo.Completed, slo.Requests)
			}
		})
	}
}

// TestKVServiceCrashP999Bounded bounds the tail-latency damage: the
// crash may slow completed requests (failover stalls, reconciliation
// ticks) but must not let survivors' p999 run away. The bound is
// deliberately loose — 4× the fault-free p999 plus two detection
// windows — because the point is "bounded", not "unchanged".
func TestKVServiceCrashP999Bounded(t *testing.T) {
	var healthy, crashed load.SLO
	if _, err := workloads.KVService(caf.Config{Images: 8, Seed: 7},
		kvLoadOpts(true, &healthy)); err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.KVService(kvLoadCfg(7, 0), kvLoadOpts(true, &crashed)); err != nil {
		t.Fatal(err)
	}
	det := detectorOn()
	bound := 4*healthy.P999 + 2*(det.Heartbeat+det.Lease)
	if crashed.P999 > bound {
		t.Errorf("crash p999 %v exceeds bound %v (healthy p999 %v)", crashed.P999, bound, healthy.P999)
	}
}

// TestKVServiceCrashBitIdentical is the same-seed bit-identity pin for
// the service-under-crash scenario: repeated runs and sharded runs must
// produce deeply equal Results and SLO reports, across both protocols.
func TestKVServiceCrashBitIdentical(t *testing.T) {
	for _, shipping := range []bool{false, true} {
		name := "locks"
		if shipping {
			name = "shipping"
		}
		t.Run(name, func(t *testing.T) {
			var slo1, slo2 load.SLO
			res1, err1 := workloads.KVService(kvLoadCfg(7, 0), kvLoadOpts(shipping, &slo1))
			res2, err2 := workloads.KVService(kvLoadCfg(7, 0), kvLoadOpts(shipping, &slo2))
			if err1 != nil || err2 != nil {
				t.Fatalf("runs failed: %v / %v", err1, err2)
			}
			if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(slo1, slo2) {
				t.Fatalf("same seed diverged:\n 1st %s\n 2nd %s", slo1.Digest(), slo2.Digest())
			}
			for _, shards := range []int{2, 4} {
				var slo load.SLO
				res, err := workloads.KVService(kvLoadCfg(7, shards), kvLoadOpts(shipping, &slo))
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(res, res1) || !reflect.DeepEqual(slo, slo1) {
					t.Fatalf("shards=%d diverged from 1-shard run:\n got %s\nwant %s",
						shards, slo.Digest(), slo1.Digest())
				}
			}
		})
	}
}

// TestKVServiceClientCrash crashes a client image (rank 5) mid-traffic
// instead of a server. The dead client's driver must stop issuing,
// charge its unissued and outstanding requests as lost to itself, and
// let the run end cleanly so the survivors' SLO is reported. Before,
// this ended in the driver's untyped "client image 5 stalled" panic.
// The lock protocol may also lose survivors' requests to rank 5, whose
// worker procs can die holding a lock; function shipping loses only the
// dead client's own.
func TestKVServiceClientCrash(t *testing.T) {
	for _, shipping := range []bool{false, true} {
		name := "locks"
		if shipping {
			name = "shipping"
		}
		t.Run(name, func(t *testing.T) {
			cfg := kvLoadCfg(7, 0)
			cfg.Faults.Crash = map[int]caf.Time{5: 80 * caf.Microsecond}
			var slo, again load.SLO
			res, err := workloads.KVService(cfg, kvLoadOpts(shipping, &slo))
			if err != nil {
				t.Fatalf("client crash run did not terminate cleanly: %v", err)
			}
			if slo.Completed+slo.Failed != slo.Requests {
				t.Fatalf("requests unsettled: done=%d fail=%d of %d", slo.Completed, slo.Failed, slo.Requests)
			}
			if slo.Failed == 0 || slo.Completed == 0 {
				t.Fatalf("done=%d fail=%d: scenario not exercising a mid-traffic client crash", slo.Completed, slo.Failed)
			}
			if len(slo.LostTo) != 1 || slo.LostTo[5] != slo.Failed {
				t.Errorf("LostTo = %v, want all %d failures blamed on rank 5", slo.LostTo, slo.Failed)
			}
			if res.Report.ImagesFailed != 1 {
				t.Errorf("ImagesFailed = %d, want 1 (the crashed client)", res.Report.ImagesFailed)
			}
			// Four clients share the schedule evenly enough that the dead
			// one owns well under half of it.
			if shipping && slo.Failed*2 >= slo.Requests {
				t.Errorf("shipping lost %d of %d requests to one dead client", slo.Failed, slo.Requests)
			}
			res2, err := workloads.KVService(cfg, kvLoadOpts(shipping, &again))
			if err != nil || !reflect.DeepEqual(res, res2) || !reflect.DeepEqual(slo, again) {
				t.Fatalf("same seed diverged (err %v):\n 1st %s\n 2nd %s", err, slo.Digest(), again.Digest())
			}
		})
	}
}
