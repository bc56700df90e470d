package onnx

// node is one tree node in the scorer's packed layout. At 16 bytes, four
// nodes share a cache line. An internal node sends a row to left when
// row[feat] < thr and to left+1 otherwise, so siblings sit side by side
// and a NaN feature goes right. A leaf has feat < 0 and keeps its value
// in thr.
type node struct {
	thr  float64
	feat int32
	left int32
}

// packTrees lays every tree of an ensemble out in one []node, with one
// allocation sized from the node count. The roots come first, in tree
// order, so tree t starts at node t. Each tree's other nodes follow
// breadth first, two siblings to a pair of slots. Validate has checked
// that a walk from each root reaches every node at most once, so the
// packed form holds each reachable node exactly once.
func packTrees(trees []Tree) []node {
	total := 0
	for i := range trees {
		total += len(trees[i].Feature)
	}
	nodes := make([]node, len(trees), total)
	for t := range trees {
		tr := &trees[t]
		// A slot waiting for its node holds the node's index in tr in left.
		next := len(nodes)
		nodes = packNode(nodes, t, tr)
		for ; next < len(nodes); next++ {
			nodes = packNode(nodes, next, tr)
		}
	}
	return nodes
}

// packNode fills slot p from the tree node its left field names and, for
// an internal node, queues the two children at the end of nodes.
func packNode(nodes []node, p int, tr *Tree) []node {
	src := nodes[p].left
	if tr.Left[src] < 0 {
		nodes[p] = node{thr: tr.Value[src], feat: -1}
		return nodes
	}
	nodes[p] = node{thr: tr.Threshold[src], feat: tr.Feature[src], left: int32(len(nodes))}
	return append(nodes, node{left: tr.Left[src]}, node{left: tr.Right[src]})
}

// scoreTrees writes base + rate·(the sum of the trees' leaves) for each of
// the n rows of the w-wide row-major feature matrix feats. It walks row
// outer: one row's features stay in L1 while every tree is walked in tree
// order, and the per-row sum is accumulated in the same order as a
// tree-at-a-time loop would, so the scores are bit-identical to it.
func scoreTrees(nodes []node, ntrees int, base, rate float64, feats []float64, w, n int, out []float64) {
	for r := 0; r < n; r++ {
		row := feats[r*w : r*w+w]
		s := base
		for t := 0; t < ntrees; t++ {
			nd := &nodes[t]
			for nd.feat >= 0 {
				next := nd.left
				if !(row[nd.feat] < nd.thr) {
					next++
				}
				nd = &nodes[next]
			}
			s += rate * nd.thr
		}
		out[r] = s
	}
}
