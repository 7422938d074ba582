package bench

import (
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/distributed"
)

// BenchmarkExecutorRecovery measures the fault-tolerance layer's cost: a
// run that loses one worker mid-stage-I (detected by heartbeat timeout,
// partition replayed onto a respawned worker) against the same run
// undisturbed. The delta is the recovery overhead — detection latency plus
// one partition's re-execution — and workers-lost/op confirms the failure
// actually fired.
func BenchmarkExecutorRecovery(b *testing.B) {
	ds, err := Small.Generate("tpch")
	if err != nil {
		b.Fatal(err)
	}
	inj, err := injectFor(ds, Small, 0.05, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for name, factory := range map[string]distributed.TransportFactory{
		"healthy": nil,
		"one-crash": distributed.NewFaultTransport(distributed.NewChanTransport, distributed.FaultPlan{
			Crashes: []distributed.Crash{{Slot: 1, AtSend: 1}},
		}),
	} {
		b.Run(name, func(b *testing.B) {
			var lost float64
			for i := 0; i < b.N; i++ {
				res, err := distributed.Clean(inj.Dirty, ds.Rules, distributed.Options{
					Workers:           4,
					Seed:              Small.Seed,
					Core:              core.Options{Tau: ds.Tau},
					Transport:         factory,
					HeartbeatInterval: 10 * time.Millisecond,
					WorkerTimeout:     100 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				lost += float64(res.WorkersLost)
			}
			b.ReportMetric(lost/float64(b.N), "workers-lost/op")
		})
	}
}
