package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"sbgp/internal/sim"
)

// digest fingerprints the parts of a Result a correct engine must
// reproduce bit for bit: the final deployment state, whether it is
// stable, the round count, every round's deploy and disable decisions,
// and the exact float bits of the pristine utilities.
func digest(res *sim.Result) string {
	h := sha256.New()
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	list := func(xs []int32) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(uint64(uint32(x)))
		}
	}
	u64(uint64(len(res.FinalSecure)))
	for _, s := range res.FinalSecure {
		if s {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	if res.Stable {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(len(res.Rounds)))
	for _, rd := range res.Rounds {
		list(rd.Deployed)
		list(rd.Disabled)
	}
	u64(uint64(len(res.PristineUtil)))
	for _, u := range res.PristineUtil {
		u64(math.Float64bits(u))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recorded holds the digest of every (workload, instance) the benchmark
// accepts, taken from the default in-process executor with two shards.
// game-out-dist has no entry of its own: it must reproduce game-out's.
var recorded = map[string]map[int64]string{
	"game-out": {
		7: "5032e47f3ea12dc4",
		2: "19dd729be101ab8a",
	},
	"game-in": {
		7: "380238be879db5ee",
		2: "210b9f9383d489c6",
	},
	"sweep-disk": {
		42: "396e74f32dcc10fb",
		2:  "baad8006ba24604a",
	},
}
