package spanner

import "testing"

func TestBSRounds(t *testing.T) {
	for k, want := range map[int]int{1: 3, 2: 7, 3: 12} {
		c, err := BaswanaSenConstruction(k)
		if err != nil {
			t.Fatal(err)
		}
		if c.T != want || bsRounds(k) != want {
			t.Fatalf("k=%d: round budget %d (bsRounds %d), want %d", k, c.T, bsRounds(k), want)
		}
	}
}

func TestBSLocateCoversAllRounds(t *testing.T) {
	for k := 1; k <= 4; k++ {
		prevIter := 0
		for r := 0; r < bsRounds(k); r++ {
			iter, ph := bsLocate(r, k)
			if iter < 1 || iter > k {
				t.Fatalf("k=%d round %d: iter %d", k, r, iter)
			}
			if ph == bsDone {
				t.Fatalf("k=%d round %d: done before budget", k, r)
			}
			if iter < prevIter {
				t.Fatal("iteration went backwards")
			}
			prevIter = iter
		}
		if _, ph := bsLocate(bsRounds(k), k); ph != bsDone {
			t.Fatalf("k=%d: budget round is not done", k)
		}
	}
}
