package checker

import (
	"math/rand"
	"testing"
)

// TestViolationRecordAgainstList feeds random breach sequences — long
// legitimate stretches with sporadic breaches, illegitimate stretches that
// breach every step, clock jumps — to a ViolationRecord and to a full list,
// and checks after every step: After is exact at the convergence point (one
// past the last illegitimate step), before the first breach and from the
// latest one on, and never undercounts anywhere.
func TestViolationRecordAgainstList(t *testing.T) {
	placed := 0 // checks at a convergence point with breaches after it
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r ViolationRecord
		var list []int64 // one clock per breach
		lastIllegit := int64(-1)
		clock := int64(0)
		legit := true
		for step := 0; step < 5_000; step++ {
			clock += 1 + int64(rng.Intn(8)/7)*int64(rng.Intn(50)) // now and then a timeout's jump
			if rng.Intn(200) == 0 {
				legit = !legit
			}
			n := 0
			switch {
			case !legit:
				n = 1 + rng.Intn(2)
			case rng.Intn(4) == 0:
				n = rng.Intn(3)
			}
			for i := 0; i < n; i++ {
				list = append(list, clock)
				if r.wantsText() {
					r.First = append(r.First, SafetyViolation{Clock: clock})
				}
			}
			if n > 0 {
				r.add(clock, n)
			}
			if !legit {
				r.settle()
				lastIllegit = clock
			}
			after := func(c int64) int {
				k := 0
				for _, b := range list {
					if b > c {
						k++
					}
				}
				return k
			}
			exact := []int64{lastIllegit + 1, -1, clock}
			if len(list) > 0 {
				exact = append(exact, list[0]-1, list[len(list)-1])
			}
			for _, c := range exact {
				if got, want := r.After(c), after(c); got != want {
					t.Fatalf("seed %d step %d: After(%d) = %d, list says %d", seed, step, c, got, want)
				}
			}
			if after(lastIllegit+1) > 0 {
				placed++
			}
			if c := clock - int64(rng.Intn(int(clock))); r.After(c) < after(c) {
				t.Fatalf("seed %d step %d: After(%d) = %d undercounts %d", seed, step, c, r.After(c), after(c))
			}
		}
		if r.Total != len(list) {
			t.Fatalf("seed %d: Total %d, list %d", seed, r.Total, len(list))
		}
	}
	if placed == 0 {
		t.Error("no sequence had breaches after a convergence point (vacuous test)")
	}
}
