package graph

import (
	"fmt"
	"io"
)

// DOTOptions styles a Graphviz export.
type DOTOptions struct {
	// Name is the graph name in the DOT header.
	Name string
	// Highlight is a strictly ascending set of the graph's edges (e.g. a
	// spanner) to draw bold red; the rest are drawn light gray.
	Highlight []EdgeID
	// NodeLabel overrides node labels (nil: the node ID).
	NodeLabel func(NodeID) string
	// NodeGroup assigns a fill-color class per node (e.g. a cluster index);
	// -1 or nil means unstyled. Groups cycle through a small palette.
	NodeGroup func(NodeID) int
}

// dotPalette holds fill colors cycled by NodeGroup.
var dotPalette = []string{
	"#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
	"#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
}

// WriteDOT renders the graph in Graphviz DOT format. Output is
// deterministic: nodes and edges are emitted in ascending order.
func (g *Graph) WriteDOT(w io.Writer, opts DOTOptions) error {
	name := opts.Name
	if name == "" {
		name = "G"
	}
	if _, err := fmt.Fprintf(w, "graph %q {\n  node [shape=circle fontsize=10];\n", name); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		label := fmt.Sprint(v)
		if opts.NodeLabel != nil {
			label = opts.NodeLabel(NodeID(v))
		}
		attrs := fmt.Sprintf("label=%q", label)
		if opts.NodeGroup != nil {
			if grp := opts.NodeGroup(NodeID(v)); grp >= 0 {
				attrs += fmt.Sprintf(" style=filled fillcolor=%q", dotPalette[grp%len(dotPalette)])
			}
		}
		if _, err := fmt.Fprintf(w, "  %d [%s];\n", v, attrs); err != nil {
			return err
		}
	}
	hi := opts.Highlight
	for _, e := range g.EdgesByID() {
		style := `color="#cccccc"`
		if len(hi) > 0 && hi[0] == e.ID {
			style, hi = `color="#d62728" penwidth=2.0`, hi[1:]
		}
		if _, err := fmt.Fprintf(w, "  %d -- %d [%s];\n", e.U, e.V, style); err != nil {
			return err
		}
	}
	if len(hi) > 0 {
		return fmt.Errorf("graph: highlight edge %d not in graph or out of ascending order", hi[0])
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
