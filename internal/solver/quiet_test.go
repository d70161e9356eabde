package solver

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/lp"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// quietRig is the round benchmark's steady_quiet deployment driven through
// SolveWarm directly: a 3×4×6×24 region, eight count-based reservations
// filling 70 % of it, no shared buffer, settled until a round moves nothing.
// Every round brings last round's failures back and fails two free-pool
// servers — a delta the model cache patches and the warm root LP absorbs in
// a pivot or two.
type quietRig struct {
	region *topology.Region
	rsvs   []reservation.Reservation
	br     *broker.Broker
	cfg    Config
	warm   *WarmState
	down   []topology.ServerID
	rng    *rand.Rand
}

func newQuietRig(tb testing.TB) *quietRig {
	tb.Helper()
	region := testRegion(tb, 3, 4, 6, 24, 9)
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	const n = 8
	mean := len(region.Servers) * 7 / 10 / n
	q := &quietRig{
		region: region,
		br:     broker.New(region),
		cfg: Config{
			MaxNodes: 100, Phase1TimeLimit: 2 * time.Minute, Phase2TimeLimit: 2 * time.Minute,
			SharedBufferFraction: -1,
		},
		rng: rand.New(rand.NewSource(1)),
	}
	for i := 0; i < n; i++ {
		q.rsvs = append(q.rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: fmt.Sprintf("svc%d", i), Class: classes[i%len(classes)],
			RRUs: float64(mean + 2*i - (n - 1)), CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	// Settle: solve and apply until two rounds in a row move nothing.
	still := 0
	for r := 0; r < 20 && still < 2; r++ {
		res := q.solve(tb, q.input())
		if res.Moves.InUse+res.Moves.Unused == 0 {
			still++
		} else {
			still = 0
		}
	}
	return q
}

// input snapshots the broker into the next round's input.
func (q *quietRig) input() Input {
	return Input{Region: q.region, Reservations: q.rsvs, States: q.br.Snapshot()}
}

// quietEvents revives last round's failures and fails two free-pool servers.
func (q *quietRig) quietEvents() {
	for _, id := range q.down {
		q.br.ClearUnavailable(id, 0)
	}
	q.down = q.down[:0]
	var free []topology.ServerID
	q.br.Scan(func(st *broker.ServerState) {
		if st.Unavail == broker.Available && st.Current == reservation.Unassigned {
			free = append(free, st.ID)
		}
	})
	for k := 0; k < 2 && len(free) > 0; k++ {
		j := q.rng.Intn(len(free))
		q.down = append(q.down, free[j])
		free[j] = free[len(free)-1]
		free = free[:len(free)-1]
	}
	for _, id := range q.down {
		q.br.SetUnavailable(id, broker.RandomFailure, 0, 1)
	}
}

// solve runs one round on in and applies its targets: the servers the round
// moves change Current at once, as the mover would.
func (q *quietRig) solve(tb testing.TB, in Input) *Result {
	res, err := SolveWarm(context.Background(), in, q.cfg, q.warm, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i, tgt := range res.Targets {
		if tgt != in.States[i].Current {
			q.br.SetCurrent(topology.ServerID(i), tgt)
		}
	}
	q.warm = res.Warm
	return res
}

// BenchmarkRound times one SolveWarm round on steady_quiet's deployment —
// the broker events and the snapshot stay outside the timer — of each kind a
// round comes in:
//   - quiet: the models are patched and each phase's root LP re-enters its
//     factorization (quietEvents);
//   - rebuild: both phase models rebuild on a new symmetry group, into the
//     storage of the models they replace (rebuildEvents);
//   - cold: a fresh system with 1 % of its servers failed, with no warm
//     state, so the models, workspaces and factorizations are built anew and
//     branch-and-bound is most of the round (coldEvents).
//
// Each reports ns/op, B/op and allocs/op, the LP iterations and B&B nodes a
// round took, the LPs it solved that were offered no basis (coldlps: cold
// roots and the root retry dive's first LP), and the median of the
// individually timed rounds (a quiet round that rebuilds a model, one in ten
// or so, moves the mean but not the median).
func BenchmarkRound(b *testing.B) {
	for _, c := range []struct {
		name   string
		events func(q *quietRig, busy *topology.ServerID)
	}{
		{"quiet", func(q *quietRig, _ *topology.ServerID) { q.quietEvents() }},
		{"rebuild", (*quietRig).rebuildEvents},
		{"cold", func(q *quietRig, _ *topology.ServerID) { q.coldEvents() }},
	} {
		b.Run(c.name, func(b *testing.B) {
			q := newQuietRig(b)
			busy := topology.ServerID(-1)
			iters, nodes, cold := 0, 0, 0
			rounds := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.events(q, &busy)
				in := q.input()
				b.StartTimer()
				t0 := time.Now()
				res := q.solve(b, in)
				rounds = append(rounds, time.Since(t0))
				iters += res.Phase1.LPIters + res.Phase2.LPIters
				nodes += res.Phase1.Nodes + res.Phase2.Nodes
				for _, l := range [...]lp.Stats{res.Phase1.LP, res.Phase2.LP} {
					cold += l.Solves - l.WarmHits - l.ColdFallbacks.Total()
				}
			}
			b.ReportMetric(float64(iters)/float64(b.N), "lpiters/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(cold)/float64(b.N), "coldlps/op")
			slices.Sort(rounds)
			b.ReportMetric(float64(rounds[len(rounds)/2]), "p50-ns/round")
		})
	}
}

// TestQuietRoundAllocsBounded pins what a patched quiet round allocates: the
// Result's targets, and per phase the incumbent and the root basis, plus a
// fixed number of small structs — nothing per symmetry group, per spec or
// per server beyond that. The root LP's point is its workspace's storage,
// so it costs nothing.
func TestQuietRoundAllocsBounded(t *testing.T) {
	q := newQuietRig(t)
	for r := 0; r < 4; r++ {
		q.quietEvents()
		in := q.input()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := q.solve(t, in)
		runtime.ReadMemStats(&after)
		if !res.Phase1.ModelPatched || !res.RanPhase2 || !res.Phase2.ModelPatched ||
			res.Phase1.Nodes+res.Phase2.Nodes != 0 {
			t.Fatalf("round %d is not a quiet round: patched %v/%v, rack phase %v, %d nodes", r,
				res.Phase1.ModelPatched, res.Phase2.ModelPatched, res.RanPhase2, res.Phase1.Nodes+res.Phase2.Nodes)
		}
		vars := res.Phase1.ModelVars + res.Phase2.ModelVars
		carried := 8*len(res.Targets) + 8*vars + vars/2 // targets; per phase X and the basis
		const fixedAllocs, fixedBytes = 120, 32 << 10
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if allocs > fixedAllocs || bytes > uint64(carried+fixedBytes) {
			t.Errorf("round %d: %d allocs and %d B, want ≤ %d and ≤ %d B", r, allocs, bytes, fixedAllocs, carried+fixedBytes)
		}
	}
}
