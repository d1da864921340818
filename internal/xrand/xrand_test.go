package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestDeriveStable(t *testing.T) {
	root := New(7)
	s1 := root.Derive(13)
	// Advancing the root must not change future derivations.
	root.Uint64()
	root.Uint64()
	s2 := New(7).Derive(13)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatalf("Derive is not a pure function of (seed, stream) at step %d", i)
		}
	}
}

func TestDeriveIndependent(t *testing.T) {
	root := New(7)
	seen := make(map[uint64]bool)
	for stream := uint64(0); stream < 512; stream++ {
		v := root.Derive(stream).Uint64()
		if seen[v] {
			t.Fatalf("streams collide on first output (stream=%d)", stream)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestIntnPinned pins Intn's outputs, and where it leaves the stream, at
// bounds from 1 to MaxInt64, including one (3·2^61) that rejects about a
// quarter of its draws. The values were recorded from the portable
// 32-bit-limb multiply that bits.Mul64 replaced.
func TestIntnPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int
		next uint64 // the Uint64 after the six draws
	}{
		{1, []int{0, 0, 0, 0, 0, 0}, 4028864712777624925},
		{3, []int{2, 0, 0, 1, 0, 2}, 4028864712777624925},
		{10, []int{7, 1, 2, 3, 0, 8}, 4028864712777624925},
		{1000003, []int{741567, 159910, 278601, 344191, 38030, 868230}, 4028864712777624925},
		{3 << 61, []int{5129796574783228279, 1927231405673536446, 2380949272596845911, 263074794803236218, 6005992922123620898, 1510824267291609346}, 14769051326987775908},
		{math.MaxInt64, []int{6839728766377637705, 1474913046063446145, 2569641874231381928, 3174599030129127881, 350766393070981624, 8007990562831494530}, 4028864712777624925},
	} {
		r := New(42)
		got := make([]int, len(tc.want))
		for i := range got {
			got[i] = r.Intn(tc.n)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("Intn(%d) drew %v, want %v", tc.n, got, tc.want)
		}
		if next := r.Uint64(); next != tc.next {
			t.Errorf("Intn(%d): next Uint64 %d, want %d", tc.n, next, tc.next)
		}
	}
}

// TestSkipIntnMatchesIntn checks that SkipIntn(n, k) leaves the stream
// where k plain Intn(n) calls do: on the O(1) power-of-two path (2, 64),
// on bounds that almost never reject, and at 3·2^61, where about a quarter
// of all draws are rejected and redrawn.
func TestSkipIntnMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 64, 1000003, 3 << 61, math.MaxInt64} {
		for _, k := range []int{0, 1, 17, 10000} {
			for seed := uint64(1); seed <= 3; seed++ {
				plain, skip := New(seed), New(seed)
				for range k {
					plain.Intn(n)
				}
				skip.SkipIntn(n, k)
				if a, b := skip.Uint64(), plain.Uint64(); a != b {
					t.Fatalf("n=%d k=%d seed %d: after SkipIntn the next Uint64 is %d, after %d Intn calls %d", n, k, seed, a, k, b)
				}
			}
		}
	}
}

func TestSkipIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SkipIntn(0, 1) did not panic")
		}
	}()
	New(1).SkipIntn(0, 1)
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(10)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(21)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestInt63nRange(t *testing.T) {
	r := New(2)
	for _, n := range []int64{1, 2, 1000, math.MaxInt32 + 5, math.MaxInt64} {
		for i := 0; i < 100; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	// Must not panic and must be deterministic.
	a := r.Uint64()
	var r2 RNG
	if a != r2.Uint64() {
		t.Fatal("zero-value RNG not deterministic")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := New(31)
	const rate, trials = 2.0, 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want %v", rate, mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}
