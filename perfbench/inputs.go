package main

import (
	"fmt"
	"math/rand"

	"desmask/internal/sim"
)

// inputs is everything a workload draws from its seed: the fixed DES key and
// plaintext and the assessment seed (population split, random keys, masks).
// The program under test only ever sees these values, never the seed.
type inputs struct {
	Key        uint64
	Plaintext  uint64
	AssessSeed int64
}

func genInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	return inputs{Key: rng.Uint64(), Plaintext: rng.Uint64(), AssessSeed: rng.Int63()}
}

// buildSpec names one protected build of the DES program as leakd spells it.
type buildSpec struct {
	Policy   string
	ISA      string
	Optimize bool
}

func (b buildSpec) String() string {
	s := b.Policy + "/" + b.ISA
	if b.Optimize {
		s += "/O"
	}
	return s
}

// leakdReq is one request of a client's closed-loop stream. A replay
// resubmits the body of the client's earlier request ReplayOf verbatim.
type leakdReq struct {
	Build    buildSpec
	Seed     int64
	ReplayOf int // index into the same client's stream, -1 for a fresh request
}

// Request-stream shares: every replayEvery-th request of a client is a
// replay of one of its earlier fresh requests, and every coldEvery-th is
// assessed on a build outside the hot set, which the program cache (sized
// by leakdCacheSize) has evicted. No measured traffic stands behind these
// shares: they are chosen so that cache misses, cache hits and store
// replays each carry a share large enough to measure.
const (
	replayEvery = 4
	coldEvery   = 8
)

// leakdStream returns the first n requests of client c (of clients) for a
// workload seed. The builds follow a fixed rotation, so every prefix of the
// stream has the same mix whatever the seed: hot builds in turn, starting at
// the client's own offset; cold builds in turn, each client its own residue
// class of the cold list, so a cold build is never the one another client
// just loaded. The seed draws the fresh assessment seeds and which of this
// client's earlier fresh requests each replay repeats (a closed loop
// guarantees those have completed).
func leakdStream(seed int64, c, clients, n int, hot, cold []buildSpec) []leakdReq {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, c)))
	out := make([]leakdReq, 0, n)
	var fresh []int
	nextHot := c
	for k := 0; k < n; k++ {
		if k%replayEvery == replayEvery-1 && len(fresh) > 0 {
			out = append(out, leakdReq{ReplayOf: fresh[rng.Intn(len(fresh))]})
			continue
		}
		var b buildSpec
		if len(cold) > 0 && k%coldEvery == coldEvery/2 {
			b = cold[(c+clients*(k/coldEvery))%len(cold)]
		} else {
			b = hot[nextHot%len(hot)]
			nextHot++
		}
		fresh = append(fresh, k)
		out = append(out, leakdReq{Build: b, Seed: rng.Int63n(1 << 40), ReplayOf: -1})
	}
	return out
}

func hex64(v uint64) string { return fmt.Sprintf("%016X", v) }
