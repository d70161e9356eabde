package mip

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"
)

// goldenSearchTrajectories are searchTrajectory hashes of the 72 seeded cases
// of TestDriverMatchesSerialReference, recorded with the search as it was
// before its per-node and per-LP storage became kept storage — the LP point
// a fresh slice per solve, each child a full copy of its parent's bound
// changes. A change meant to alter the search (another node order, another
// heuristic schedule, another LP pivot rule) re-records them: run
// `go test -run TestGoldenSearchTrajectories ./internal/mip` on amd64 and
// paste the values the failure message prints, saying in the change why the
// trajectories moved.
var goldenSearchTrajectories = [72]uint64{
	0x67431f90672e7e79, 0xb33ca34bdd39ddb8, 0x8d4b5b421fee0884, 0xcdc52c060219cc6a,
	0xe21119b4f4dfee29, 0xb5bad208ecec0377, 0xaf1a116c601eedf0, 0xa4f702da327d34d7,
	0xbff4807ad2face76, 0xdd4a10fe095132cf, 0xef0651fe93643a49, 0xda80cced9620648a,
	0xa1eb78648473e756, 0x6725a8acc23700c4, 0xb461733906ca460e, 0xd95bc5f342732a3e,
	0x5a01c7f58d88b031, 0xa225b571ef7f8438, 0xa7d36db970deab5a, 0xdada4e477a38ac88,
	0x91e09a3cc2eea4e3, 0x3b79f319d765f21e, 0x64f5a0167ce1f0db, 0x40d7d83754ef299d,
	0xd889906c45a723ee, 0x45b98f28e4ee3359, 0x0743be92ca5bbaa1, 0x0fb3c41e457b8da9,
	0x7138ec446a62e23a, 0x0ec36d8abb8ed86d, 0x6b66fd8622043b37, 0xfebf012163afc124,
	0x9137c3a7eb29da08, 0x515d5cd2aabda7fd, 0xae749167a872f5e4, 0x51d3702b7e779011,
	0x2f351397e3ac0329, 0x34ed454f2838eac1, 0x0bf019953b8c7ab4, 0xaeee99947edd5fb7,
	0x91f5291bcf809c0c, 0x180ebb19c05b0e0b, 0x0fb3c41e457b8da9, 0x47c76c0ecfbdb964,
	0xa94d163837877451, 0x00aceceb93255e6f, 0xb517dfff8213502c, 0x3daf80b880107d3e,
	0xc6a6715bb1794f9c, 0xef34fa6c298e3ebc, 0xa5957ee4ba7b1e6d, 0x58bb98ee618345af,
	0x00cb3394203a08fa, 0x4a17e0e9a100840f, 0x9f1ea8ebf720eb3f, 0x780fedaf0f8c0990,
	0x9950ac15fa8e75cb, 0xb378e1d0127c4605, 0x14b87360ae51d83a, 0x50afa850cf17dad0,
	0xcdc52c060219cc6a, 0x2c78aa6ff19d586c, 0x9d266add06703e02, 0x4c3dbb2f62ec683f,
	0xa0171ff002bcaebc, 0x87eed650ebda8bba, 0xa4d2938d7c8622a3, 0xd1669a2ee4fc78dd,
	0xd1945df11b476124, 0x0bbc7a86a5b9096c, 0x105e84750b26c990, 0x87d0cce6f3a11234,
}

// goldenSpreadTrajectories are the searchTrajectory hashes of spreadCases,
// recorded with the root retry dive starting its first LP cold and
// continuing its own chain, and with node completions run only while the
// incumbent leaves penalty slack; they are re-recorded as
// goldenSearchTrajectories are.
var goldenSpreadTrajectories = [len(spreadCases)]uint64{
	0xacf8ffbd1276eeef, 0xcec6961bbdaaa273, 0x6f72d9c50c7c834e, 0xc09c5a69b5d61fea,
	0xade8009514021e49, 0xa93124146d82c77d, 0x2d00fa1164548781, 0x0aeb51e298642d54,
}

// searchTrajectory hashes what a search decided: per solve its Status, the
// bits of Objective and of every entry of X, Nodes, the LP iterations and the
// incumbent updates.
func searchTrajectory(rs []Result) uint64 {
	h := fnv.New64a()
	var buf []byte
	w := func(u uint64) { buf = binary.LittleEndian.AppendUint64(buf, u) }
	for _, r := range rs {
		w(uint64(r.Status))
		w(math.Float64bits(r.Objective))
		w(uint64(len(r.X)))
		for _, v := range r.X {
			w(math.Float64bits(v))
		}
		w(uint64(r.Nodes))
		w(uint64(r.LP.Iterations))
		w(uint64(r.IncumbentUpdates))
	}
	h.Write(buf) //raslint:allow errdrop hash.Hash documents that Write never returns an error
	return h.Sum64()
}

// differing lists the indices where got and want differ.
func differing(got, want []uint64) []int {
	var out []int
	for i := range got {
		if got[i] != want[i] {
			out = append(out, i)
		}
	}
	return out
}

// TestGoldenSearchTrajectories solves the 72 seeded cases of
// TestDriverMatchesSerialReference at Workers: 1 — the same models, node caps,
// stall settings and second warm solves — and its spreadCases, and requires
// each trajectory hash to read as recorded. The reference comparison shares
// processNode and the heuristics with the driver, so it cannot see a change
// that moves both; this oracle can, and a point kept past the solve that
// produced it and then overwritten is such a change.
func TestGoldenSearchTrajectories(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trajectories recorded on amd64; FMA fusing elsewhere changes float bits")
	}
	var got [72]uint64
	for seed := int64(0); seed < 72; seed++ {
		shape := byte(seed%3) + 3*byte(seed*7%13)
		limits := byte(seed / 3 % 16)
		got[seed] = trajectoryOf(refCase(seed, shape, limits))
	}
	var spread [len(spreadCases)]uint64
	for i := range spreadCases {
		spread[i] = trajectoryOf(spreadCase(i))
	}
	for _, c := range []struct {
		name      string
		got, want []uint64
	}{
		{"search", got[:], goldenSearchTrajectories[:]},
		{"spread", spread[:], goldenSpreadTrajectories[:]},
	} {
		if d := differing(c.got, c.want); len(d) > 0 {
			var b strings.Builder
			for i, h := range c.got {
				if i%4 == 0 {
					b.WriteString("\n\t")
				}
				fmt.Fprintf(&b, "%#016x, ", h)
			}
			t.Errorf("%s trajectories changed; cases %v differ. Recorded values to paste:%s", c.name, d, b.String())
		}
	}
}

// trajectoryOf solves a case — again from the first solve's root basis and
// workspace when again is set — and hashes its trajectory.
func trajectoryOf(build func() *Model, opt Options, again bool) uint64 {
	m := build()
	rs := []Result{m.Solve(context.Background(), opt)}
	if again {
		o := opt
		o.RootBasis, o.RootWorkspace = rs[0].RootBasis, rs[0].RootWorkspace
		rs = append(rs, m.Solve(context.Background(), o))
	}
	return searchTrajectory(rs)
}
