package graph

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	var b strings.Builder
	err := g.WriteDOT(&b, DOTOptions{
		Name:      "test",
		Highlight: []EdgeID{e1},
		NodeLabel: func(v NodeID) string { return "n" + string(rune('0'+v)) },
		NodeGroup: func(v NodeID) int { return int(v) % 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`graph "test" {`,
		`label="n0"`,
		"0 -- 1",
		"1 -- 2",
		"penwidth=2.0", // highlighted edge
		`color="#cccccc"`,
		"fillcolor=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTDefaults(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	var b strings.Builder
	if err := g.WriteDOT(&b, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `graph "G" {`) {
		t.Fatal("default graph name missing")
	}
	if err := g.WriteDOT(&b, DOTOptions{Highlight: []EdgeID{7}}); err == nil {
		t.Fatal("highlight of an unknown edge accepted")
	}
}

func TestWriteDOTDeterministic(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	var a, b strings.Builder
	if err := g.WriteDOT(&a, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteDOT(&b, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("DOT output not deterministic")
	}
}
