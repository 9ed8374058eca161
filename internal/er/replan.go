package er

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file is the block index and the incremental half of shard
// planning. Everything in it is integers: block keys are the registry's
// dense block ids (prep.go), rows are their index in the round's table,
// a block is the ascending []int32 of its member rows, and the candidate
// pair list is one sorted []int64 of packed (I, J). One enumerator —
// blockIndex.pairs, per block blockPairs — serves CandidatePairs, a fresh
// PlanShards and the re-plan alike.
//
// Cluster representatives are one roots slab, a []int32 indexed by union
// row: each entry is the smallest row of the row's cluster, or -1 while
// no resolve has reached the row. The slab travels the whole round —
// RePlan fills the clean components' rows, each shard's ResolveDirty
// fills its own dirty rows in place (shards own disjoint rows, so the
// fan-out needs no lock), RePlanned.Clustering numbers it, and Commit
// keeps it as the next round's memo. ResolveShard and MergeRoots keep a
// map-shaped form of the same core only for the benchmark probes and the
// tests' cold reference.
//
// A completed plan+resolve round is memoized as a PlanState (block
// members, the sorted pair list with the score of every pair scored, the
// roots slab and each row's shard), and RePlan folds a delta into it.
// The two rounds' rows are aligned by their stable row keys into a remap
// old row -> new row; the pipeline's union keeps surviving rows in order,
// so the remap is monotone and a remapped sorted pair list is still
// sorted. Only rows whose blocking evidence changed edit their blocks'
// member lists, and only touched blocks re-emit pairs — a block usable
// before and after only its leavers' and joiners' pairs, a block crossing
// the usable line all of them — which merge into the remapped previous
// list. Every shard whose resolve inputs are
// provably unchanged skips its resolve entirely, its previous clusters
// translated to the new numbering. The contract is the same
// strict one the sharded tail carries: a re-planned round is
// byte-identical to a fresh PlanShards + full resolve over the new table
// (FuzzPrepareCarry, wrangletest.CheckStreamingRePlan). The reuse
// argument: a shard's resolve output is a function of its rows' values,
// its candidate pairs, the constraints that touch it and the scoring
// rule; pairs only change inside blocks whose membership changed, and
// block membership only changes for re-blocked (dirty) rows — so a shard
// with no dirty row, no touched block, no changed constraint and an
// unchanged rule must resolve to exactly the clusters it had.

// blockIndex is the blocking state of one prepared table: per block id
// the ascending rows that carry the key. Block ids belong to reg.
type blockIndex struct {
	reg     *registry
	members [][]int32 // indexed by block id; ids the registry issued later are absent
}

// of returns block b's members (nil for a block the index predates).
func (idx *blockIndex) of(b int32) []int32 {
	if int(b) < len(idx.members) {
		return idx.members[b]
	}
	return nil
}

// buildBlockIndex blocks every row of the prepared table. Member lists
// are carved out of one slab.
func buildBlockIndex(p *tableFeatures) *blockIndex {
	n := int(p.reg.nBlocks)
	sizes := make([]int32, n)
	total := 0
	for i := range p.rows {
		key, grams := p.blocks(i)
		if key >= 0 {
			sizes[key]++
			total++
		}
		for _, b := range grams {
			sizes[b]++
		}
		total += len(grams)
	}
	slab := make([]int32, total)
	members := make([][]int32, n)
	off := 0
	for b, sz := range sizes {
		members[b] = slab[off : off : off+int(sz)]
		off += int(sz)
	}
	for i := range p.rows {
		key, grams := p.blocks(i)
		if key >= 0 {
			members[key] = append(members[key], int32(i))
		}
		for _, b := range grams {
			members[b] = append(members[b], int32(i))
		}
	}
	return &blockIndex{reg: p.reg, members: members}
}

// usableBlock reports whether a block of sz members emits pairs: a lone
// row has no partner, and an oversized block (a stop-gram) is skipped.
func usableBlock(sz, maxBlock int) bool { return sz >= 2 && sz <= maxBlock }

// blockPairs appends every pair of one block's (ascending) members.
func blockPairs(out []int64, members []int32) []int64 {
	for a, i := range members {
		for _, j := range members[a+1:] {
			out = append(out, packPair(i, j))
		}
	}
	return out
}

// incidentPairs appends, unsorted, every pair of one block's members that
// has an endpoint in moved, which lists exactly the members whose isMoved
// flag is set.
func incidentPairs(out []int64, members, moved []int32, isMoved []bool) []int64 {
	for _, x := range moved {
		for _, y := range members {
			// A pair of two moved rows is emitted once, from its smaller end.
			if y != x && (!isMoved[y] || y > x) {
				out = append(out, packPair(min(x, y), max(x, y)))
			}
		}
	}
	return out
}

// pairs enumerates the candidate pairs of the index: every pair of every
// usable block, deduplicated, sorted by (I, J).
func (idx *blockIndex) pairs(maxBlock int) []int64 {
	total := 0
	for _, m := range idx.members {
		if n := len(m); usableBlock(n, maxBlock) {
			total += n * (n - 1) / 2
		}
	}
	// One slab for every block's pairs, then sort + compact in place.
	out := make([]int64, 0, total)
	for _, m := range idx.members {
		if usableBlock(len(m), maxBlock) {
			out = blockPairs(out, m)
		}
	}
	return sortDedup(out)
}

// PlanState memoizes one completed plan+resolve round for incremental
// re-planning, in that round's row numbering; rowKeys carries the stable
// keys the next round aligns its rows by.
type PlanState struct {
	shards int

	// Scoring rule snapshot: clusters may only be reused when the rule
	// that produced them still scores identically.
	weights   []float64
	threshold float64
	// Blocking parameter snapshot: the block index is only reusable while
	// the key/name columns and gram settings match.
	keyCol, nameCol string
	gram, maxBlock  int

	rowKeys  []string
	feat     []*rowFeatures // per row; its block ids are reg's
	idx      *blockIndex
	rowShard []int   // per row: owner shard
	roots    []int32 // per row: its cluster's representative (smallest member row)
	must     []int64 // canonical constraint pairs, packed, sorted
	cannot   []int64
	pairs    []int64 // the round's candidate pairs
	// scores[k] is pairs[k]'s score under the snapshot rule, unscored when
	// negative (a restored or never-resolved round). A pair's score depends
	// only on its two rows' values, so entries stay bit-valid until an
	// endpoint's content changes — the next round's resolve recomputes only
	// dirty-incident pairs.
	scores []float64
}

// unscored marks a pair no resolve has scored under the current rule;
// real scores lie in [0, 1].
const unscored = -1

// BuildPlanState captures a completed round: the plan (with its block
// index and pair list) and its roots slab, which must hold every row's
// representative; the state keeps the slab, so the caller must not write
// it afterwards. rowKeys must be the stable keys the plan was built with.
// No pair counts as scored; a round resolved through RePlanned commits
// its scores with Commit.
func BuildPlanState(r *Resolver, plan *ShardPlan, rowKeys []string, roots []int32, must, cannot []Pair) (*PlanState, error) {
	return buildPlanState(r, plan, rowKeys, roots, must, cannot, noScores(len(plan.pairs)))
}

// noScores returns n unscored entries.
func noScores(n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = unscored
	}
	return out
}

func buildPlanState(r *Resolver, plan *ShardPlan, rowKeys []string, roots []int32, must, cannot []Pair, scores []float64) (*PlanState, error) {
	if plan.idx == nil {
		return nil, fmt.Errorf("er: plan carries no block index")
	}
	if len(rowKeys) != len(plan.RowShard) {
		return nil, fmt.Errorf("er: %d row keys for a %d-row plan", len(rowKeys), len(plan.RowShard))
	}
	if len(roots) != len(plan.RowShard) {
		return nil, fmt.Errorf("er: %d roots for a %d-row plan", len(roots), len(plan.RowShard))
	}
	for row, root := range roots {
		if root < 0 || int(root) >= len(roots) {
			return nil, fmt.Errorf("er: shard %d roots miss row %d", plan.RowShard[row], row)
		}
	}
	st := &PlanState{
		shards:    plan.NumShards,
		weights:   slices.Clone(r.Weights),
		threshold: r.Threshold,
		keyCol:    r.KeyColumn,
		nameCol:   r.NameColumn,
		gram:      r.BlockGramSize,
		maxBlock:  r.MaxBlockSize,
		rowKeys:   rowKeys,
		feat:      plan.feat,
		idx:       plan.idx,
		rowShard:  plan.RowShard,
		roots:     roots,
		must:      canonPairs(must, len(rowKeys)),
		cannot:    canonPairs(cannot, len(rowKeys)),
		pairs:     plan.pairs,
		scores:    scores,
	}
	return st, nil
}

// canonPairs renders constraint pairs packed (smaller row first), sorted,
// invalid ones dropped — the representation two rounds' constraints are
// diffed in.
func canonPairs(ps []Pair, rows int) []int64 {
	out := make([]int64, 0, len(ps))
	for _, p := range ps {
		if validPair(p, rows) {
			out = append(out, packPair(int32(min(p.I, p.J)), int32(max(p.I, p.J))))
		}
	}
	slices.Sort(out)
	return out
}

// RePlanned is the output of an incremental re-plan: the new plan, the
// roots slab with the clusters that carried over from the previous round
// (every clean component's rows), and — per shard — the residue that
// still needs scoring (DirtyRows / DirtyPairs). A shard with no dirty
// components is marked Reused and skips resolution entirely; a mixed
// shard resolves only its dirty components' rows via ResolveDirty, which
// completes its rows of the slab. Clustering numbers the completed slab;
// Commit memoizes it.
type RePlanned struct {
	Plan *ShardPlan
	// Reused marks shards with no dirty component: their rows of Roots are
	// complete and no resolve call is needed.
	Reused []bool
	// Roots is the roots slab, indexed by row: each row's cluster
	// representative (the smallest row of its cluster), translated from the
	// previous round for clean components and -1 for dirty rows until their
	// shard's ResolveDirty writes them.
	Roots []int32
	// DirtyRows lists, per shard, the rows of dirty components
	// (ascending); DirtyPairs their candidate pairs, in plan order.
	DirtyRows  [][]int
	DirtyPairs [][]Pair

	// dirtyPairIdx[s][k] is DirtyPairs[s][k]'s position in Plan.pairs, and
	// so in scores: the carried-over score of every pair whose endpoints'
	// content did not change, unscored elsewhere. Each shard's resolve
	// fills in the positions of its own dirty pairs — disjoint writes, so
	// the fan-out needs no lock — and Commit memoizes the lot.
	dirtyPairIdx [][]int32
	scores       []float64
}

// alignRows maps the previous round's rows onto the new round's by stable
// row key: old2new[j] is old row j's new index, new2old[i] the reverse,
// -1 for rows that disappeared or appeared. ok is false when the keys
// cannot carry a sorted pair list across — a key repeats, or surviving
// rows changed their relative order.
func alignRows(oldKeys, newKeys []string) (old2new, new2old []int32, ok bool) {
	old2new, new2old = make([]int32, len(oldKeys)), make([]int32, len(newKeys))
	same := len(oldKeys) == len(newKeys)
	for i := 0; same && i < len(newKeys); i++ {
		// Interned keys compare by pointer first: unshifted rounds — a
		// refresh that kept every source's row count — pay one pass.
		same = oldKeys[i] == newKeys[i]
	}
	if same {
		for i := range new2old {
			old2new[i], new2old[i] = int32(i), int32(i)
		}
		return old2new, new2old, true
	}
	byKey := make(map[string]int32, len(oldKeys))
	for j, k := range oldKeys {
		byKey[k] = int32(j)
	}
	if len(byKey) != len(oldKeys) {
		return nil, nil, false
	}
	for j := range old2new {
		old2new[j] = -1
	}
	last := int32(-1)
	for i, k := range newKeys {
		j, found := byKey[k]
		if !found {
			new2old[i] = -1
			continue
		}
		if j <= last {
			return nil, nil, false // reordered, or the key repeats in newKeys
		}
		last = j
		old2new[j], new2old[i] = int32(i), j
	}
	return old2new, new2old, true
}

// sameBlocks reports whether two interned rows are members of the same
// block set. Equal key and name ids are the fast path; distinct names can
// still share their gram set (reordered tokens), so the slow path
// compares sets.
func sameBlocks(reg *registry, a, b *rowFeatures) bool {
	if a.keyBlock != b.keyBlock {
		return false
	}
	if a.nameID == b.nameID {
		return true
	}
	var ga, gb []int32
	if a.nameID >= 0 {
		ga = reg.nameBlocks[a.nameID]
	}
	if b.nameID >= 0 {
		gb = reg.nameBlocks[b.nameID]
	}
	if len(ga) != len(gb) {
		return false
	}
	for _, x := range ga {
		if !containsBlock(gb, x) {
			return false
		}
	}
	return true
}

// RePlan incrementally re-plans after a delta. rowKeys are the new
// table's stable keys (required, one per row); dirty lists the new rows
// whose content changed relative to the round prev memoizes — rows whose
// key prev does not know are dirty by themselves, and rows prev knows
// that rowKeys no longer names have disappeared. Only rows whose blocking
// evidence changed are re-blocked; pairs, components and shard routing
// come out exactly as PlanShards would build them from scratch. A
// block-connected component untouched by the delta — no dirty row, no
// changed block, no changed constraint, unchanged scoring rule — keeps
// its owner shard and its previous clusters, translated to the new
// numbering without scoring a single pair; only dirty components' rows
// remain to be resolved.
//
// RePlan uses the state Prepare installed for t (preparing itself when
// there is none). When prev is nil, was built under different blocking
// parameters, another shard count or another registry, or its row keys
// cannot be aligned with rowKeys, RePlan degrades to a fresh plan with no
// reuse — never an error, so callers need no fallback path of their own.
func (r *Resolver) RePlan(t *dataset.Table, n int, must, cannot []Pair, rowKeys []string, dirty []int, prev *PlanState) (*RePlanned, error) {
	if len(rowKeys) != t.Len() {
		return nil, fmt.Errorf("er: %d row keys for a %d-row table", len(rowKeys), t.Len())
	}
	if r.NameColumn == "" && r.KeyColumn == "" {
		return nil, fmt.Errorf("er: resolver needs at least a key or name column")
	}
	if n < 1 {
		n = 1
	}
	if !r.prep.valid(r, t) {
		r.Prepare(t)
	}
	p := r.prep
	fresh := func() (*RePlanned, error) {
		return freshRePlanned(planPrepared(p, r.MaxBlockSize, n, must, rowKeyFn(rowKeys))), nil
	}
	if prev == nil || prev.shards != n || !prev.blockCompatible(r) || prev.idx.reg != p.reg {
		return fresh()
	}
	old2new, new2old, ok := alignRows(prev.rowKeys, rowKeys)
	if !ok {
		return fresh()
	}
	rows := t.Len()
	isDirty := make([]bool, rows) // content changed, or the row is new
	for _, i := range dirty {
		if i < 0 || i >= rows {
			return nil, fmt.Errorf("er: dirty row %d outside a %d-row table", i, rows)
		}
		isDirty[i] = true
	}
	for i, j := range new2old {
		if j < 0 {
			isDirty[i] = true
		}
	}

	// Block edits: the rows leaving and joining each block. A dirty row
	// whose blocking evidence held (a price or timestamp edit) edits
	// nothing: every block's membership — and therefore every pair — is
	// untouched. The row's own component still goes dirty via the affected
	// set below; nothing spreads.
	nBlocks := int(p.reg.nBlocks)
	leave, join := map[int32][]int32{}, map[int32][]int32{} // block -> old rows leaving / new rows joining
	edit := func(m map[int32][]int32, rf *rowFeatures, row int32) {
		if rf.keyBlock >= 0 {
			m[rf.keyBlock] = append(m[rf.keyBlock], row)
		}
		if rf.nameID >= 0 {
			for _, b := range p.reg.nameBlocks[rf.nameID] {
				m[b] = append(m[b], row)
			}
		}
	}
	for j, i := range old2new {
		switch {
		case i < 0:
			edit(leave, prev.feat[j], int32(j))
		case isDirty[i] && !sameBlocks(p.reg, prev.feat[j], p.rows[i]):
			edit(leave, prev.feat[j], int32(j))
			edit(join, p.rows[i], i)
		}
	}
	for i, j := range new2old {
		if j < 0 {
			edit(join, p.rows[i], int32(i))
		}
	}

	// The new index: untouched blocks keep their member lists (remapped
	// when rows shifted), touched ones are rebuilt from old members minus
	// leavers plus joiners.
	shifted := len(old2new) != rows
	for j := 0; !shifted && j < rows; j++ {
		shifted = old2new[j] != int32(j)
	}
	idx := &blockIndex{reg: p.reg, members: make([][]int32, nBlocks)}
	if shifted {
		total := 0
		for _, m := range prev.idx.members {
			total += len(m)
		}
		slab := make([]int32, 0, total)
		for b, m := range prev.idx.members {
			at := len(slab)
			for _, j := range m {
				if i := old2new[j]; i >= 0 {
					slab = append(slab, i)
				}
			}
			idx.members[b] = slab[at:len(slab):len(slab)]
		}
	} else {
		copy(idx.members, prev.idx.members)
	}
	touched := make([]int32, 0, len(leave)+len(join))
	for b := range leave {
		touched = append(touched, b)
	}
	for b := range join {
		if _, both := leave[b]; !both {
			touched = append(touched, b)
		}
	}
	slices.Sort(touched)

	// Each touched block is rebuilt, then spreads dirt and emits the pairs
	// it may have lost or gained. The dirty frontier: dirty rows, every old
	// or new member of a touched block whose pairs could have appeared or
	// vanished, and both ends of every constraint that changed. A touched
	// block spreads dirt only through the rounds in which it was usable
	// (2..MaxBlockSize members): an oversized block emits no pairs on
	// either side of the delta, so membership churn inside it is inert —
	// without this distinction a renamed row's stop-gram blocks would dirty
	// most of the corpus. A block usable on both sides still supports every
	// pair of two stayers, so it emits only the pairs of its leavers (to
	// vanished) and of its joiners (to appeared); only a block crossing the
	// usable line emits whole, on the side where it was usable.
	moved := make([]bool, rows) // by new row: a surviving leaver or a joiner of the block at hand
	affected := slices.Clone(isDirty)
	var vanished, appeared []int64
	var survivors, movedOut []int32
	for _, b := range touched {
		old, gone, joiners := prev.idx.of(b), leave[b], join[b]
		slices.Sort(joiners)
		movedOut = movedOut[:0]
		for _, j := range gone {
			if i := old2new[j]; i >= 0 {
				moved[i] = true
				movedOut = append(movedOut, i)
			}
		}
		for _, i := range joiners {
			moved[i] = true
		}
		// Stayers (ascending: the remap is monotone) merged with joiners. A
		// re-blocked row that stays in b left and joined, so no row repeats.
		survivors = survivors[:0]
		next := make([]int32, 0, len(old)+len(joiners))
		pending := joiners
		for _, j := range old {
			i := old2new[j]
			if i < 0 {
				continue
			}
			survivors = append(survivors, i)
			if moved[i] {
				continue
			}
			for len(pending) > 0 && pending[0] < i {
				next, pending = append(next, pending[0]), pending[1:]
			}
			next = append(next, i)
		}
		cur := append(next, pending...)
		idx.members[b] = cur

		wasUsable, isUsable := usableBlock(len(old), r.MaxBlockSize), usableBlock(len(cur), r.MaxBlockSize)
		if wasUsable {
			for _, i := range survivors {
				affected[i] = true
			}
		}
		if isUsable {
			for _, i := range cur {
				affected[i] = true
			}
		}
		switch {
		case wasUsable && isUsable:
			vanished = incidentPairs(vanished, survivors, movedOut, moved)
			appeared = incidentPairs(appeared, cur, joiners, moved)
		case wasUsable:
			vanished = blockPairs(vanished, survivors)
		case isUsable:
			appeared = blockPairs(appeared, cur)
		}
		for _, i := range movedOut {
			moved[i] = false
		}
		for _, i := range joiners {
			moved[i] = false
		}
	}
	newMust, newCannot := canonPairs(must, rows), canonPairs(cannot, rows)
	markChanged := func(old, cur []int64) {
		remapped := make([]int64, 0, len(old))
		for _, v := range old {
			pr := unpackPair(v)
			i, j := old2new[pr.I], old2new[pr.J]
			if i >= 0 && j >= 0 {
				remapped = append(remapped, packPair(i, j))
				continue
			}
			// The constraint lost an endpoint; what is left of it changed.
			for _, e := range []int32{i, j} {
				if e >= 0 {
					affected[e] = true
				}
			}
		}
		slices.Sort(remapped)
		for _, v := range symDiff(remapped, cur) {
			pr := unpackPair(v)
			affected[pr.I], affected[pr.J] = true, true
		}
	}
	markChanged(prev.must, newMust)
	markChanged(prev.cannot, newCannot)

	// The new pair list: the previous one remapped (monotone, so still
	// sorted), minus the vanished pairs no usable block supports any more,
	// plus the appeared ones. A vanished pair some other usable block still
	// supports stays: check its rows' blocks.
	// Scores travel with their pairs while both endpoints' content held:
	// the rule is checked below and Features reads only the two rows'
	// values, so those floats are bit-identical to recomputing.
	vanished, appeared = sortDedup(vanished), sortDedup(appeared)
	ruleHeld := prev.threshold == r.Threshold && slices.Equal(prev.weights, r.Weights)
	pairs := make([]int64, 0, len(prev.pairs)+len(appeared))
	scores := make([]float64, 0, len(prev.pairs)+len(appeared))
	vi, ai := 0, 0
	emitAppeared := func(upTo int64) { // appeared pairs below upTo, not in the old list
		for ai < len(appeared) && appeared[ai] < upTo {
			pairs, scores = append(pairs, appeared[ai]), append(scores, unscored)
			ai++
		}
	}
	for k, v := range prev.pairs {
		pr := unpackPair(v)
		i, j := old2new[pr.I], old2new[pr.J]
		if i < 0 || j < 0 {
			continue
		}
		nv := packPair(i, j)
		emitAppeared(nv)
		for vi < len(vanished) && vanished[vi] < nv {
			vi++
		}
		if ai < len(appeared) && appeared[ai] == nv {
			ai++ // still supported, by a touched block
		} else if vi < len(vanished) && vanished[vi] == nv && !idx.shareUsableBlock(p, int(i), int(j), r.MaxBlockSize) {
			continue
		}
		s := float64(unscored)
		if ruleHeld && !isDirty[i] && !isDirty[j] {
			s = prev.scores[k]
		}
		pairs, scores = append(pairs, nv), append(scores, s)
	}
	emitAppeared(int64(rows) << 32)

	plan, comp := assemblePlan(rows, n, pairs, must, rowKeyFn(rowKeys))
	plan.idx, plan.feat = idx, p.rows

	rp := &RePlanned{
		Plan:         plan,
		Reused:       make([]bool, n),
		Roots:        make([]int32, rows),
		DirtyRows:    make([][]int, n),
		DirtyPairs:   make([][]Pair, n),
		dirtyPairIdx: make([][]int32, n),
		scores:       scores,
	}
	if !ruleHeld {
		// The scoring rule moved (feedback re-learned the matcher): every
		// cluster is up for grabs, nothing is reusable.
		unresolve(rp.Roots)
		for s := 0; s < n; s++ {
			rp.DirtyRows[s] = plan.Rows[s]
			rp.DirtyPairs[s] = plan.Pairs[s]
			rp.dirtyPairIdx[s] = plan.pairIdx[s]
		}
		return rp, nil
	}

	// A component is dirty when the delta touched any of its rows — or
	// when a row was not in the same shard before (a defensive guard;
	// routing is stable for clean components). Every other component
	// translates its previous clusters by reference.
	compDirty := make([]bool, rows) // indexed by component root
	for i, root := range comp {
		if affected[i] || prev.rowShard[new2old[i]] != plan.RowShard[i] {
			compDirty[root] = true
		}
	}
	rep := make([]int32, len(prev.rowKeys)) // old representative -> its group's smallest new row
	for j := range rep {
		rep[j] = -1
	}
	for s := 0; s < n; s++ {
		// Rows[s] is ascending, so the first row seen per representative
		// group is the group's smallest new index — exactly the
		// representative a fresh resolve would pick. The shards' rows cover
		// the table, so this loop writes every entry of the slab.
		for _, row := range plan.Rows[s] {
			if compDirty[comp[row]] {
				rp.DirtyRows[s] = append(rp.DirtyRows[s], row)
				rp.Roots[row] = -1
				continue
			}
			pr := prev.roots[new2old[row]]
			if rep[pr] < 0 {
				rep[pr] = int32(row)
			}
			rp.Roots[row] = rep[pr]
		}
		rp.Reused[s] = len(rp.DirtyRows[s]) == 0
	}
	// Candidate pairs never cross components, so a shard's dirty pairs are
	// exactly its pairs whose endpoints lie in dirty components — plan order
	// preserved. Counted first, every shard's are cut out of one slab.
	counts := make([]int, n)
	total := 0
	for s, reused := range rp.Reused {
		if reused {
			continue
		}
		for _, pr := range plan.Pairs[s] {
			if compDirty[comp[pr.I]] {
				counts[s]++
			}
		}
		total += counts[s]
	}
	pairSlab, idxSlab := make([]Pair, 0, total), make([]int32, 0, total)
	for s, c := range counts {
		if c == 0 {
			continue
		}
		at := len(pairSlab)
		for k, pr := range plan.Pairs[s] {
			if compDirty[comp[pr.I]] {
				pairSlab = append(pairSlab, pr)
				idxSlab = append(idxSlab, plan.pairIdx[s][k])
			}
		}
		rp.DirtyPairs[s], rp.dirtyPairIdx[s] = pairSlab[at:len(pairSlab):len(pairSlab)], idxSlab[at:len(idxSlab):len(idxSlab)]
	}
	return rp, nil
}

// shareUsableBlock reports whether rows i and j are both members of some
// usable block of the index — whether (i, j) is a candidate pair.
func (idx *blockIndex) shareUsableBlock(p *tableFeatures, i, j, maxBlock int) bool {
	ki, gi := p.blocks(i)
	kj, gj := p.blocks(j)
	if ki >= 0 && ki == kj && usableBlock(len(idx.of(ki)), maxBlock) {
		return true
	}
	for _, b := range gi {
		if usableBlock(len(idx.of(b)), maxBlock) && containsBlock(gj, b) {
			return true
		}
	}
	return false
}

// freshRePlanned wraps a from-scratch plan as a RePlanned with no reuse:
// every shard resolves all of its rows (and seeds the score cache as it
// goes).
func freshRePlanned(plan *ShardPlan) *RePlanned {
	n := plan.NumShards
	rp := &RePlanned{
		Plan:         plan,
		Reused:       make([]bool, n),
		Roots:        make([]int32, len(plan.RowShard)),
		DirtyRows:    plan.Rows,
		DirtyPairs:   plan.Pairs,
		dirtyPairIdx: plan.pairIdx,
		scores:       noScores(len(plan.pairs)),
	}
	unresolve(rp.Roots)
	return rp
}

// unresolve marks every row of a roots slab as not yet resolved.
func unresolve(roots []int32) {
	for i := range roots {
		roots[i] = -1
	}
}

// ResolveDirty scores and clusters shard i's dirty residue (DirtyRows /
// DirtyPairs) exactly as ResolveShard would cluster those rows inside
// the full shard: components are independent under constrained
// clustering (no scored pair or must-link crosses them, and
// cross-component cannot-links are inert), so resolving the dirty
// subset and adopting the clean components' translated clusters
// reproduces the full resolve bit for bit. The shard's dirty rows are
// written into Roots in place; shards own disjoint rows, so the resolve
// fan-out shares the slab without a lock. The cross-round score cache
// supplies every pair whose endpoints did not change — only
// dirty-incident and brand-new pairs pay for feature extraction — and
// what is computed fresh is recorded for the next round. Constraints
// are passed whole; endpoints outside the dirty rows are ignored,
// mirroring the full resolve's local filter. It returns the shard's
// constraint-conflict count.
func (rp *RePlanned) ResolveDirty(r *Resolver, t *dataset.Table, shard int, must, cannot []Pair) (int, error) {
	if shard < 0 || shard >= rp.Plan.NumShards {
		return 0, fmt.Errorf("er: shard %d out of range [0,%d)", shard, rp.Plan.NumShards)
	}
	at := rp.dirtyPairIdx[shard]
	var sc text.Scratch
	f := make([]float64, len(FeatureNames))
	score := func(k int, p Pair) float64 {
		if s := rp.scores[at[k]]; s != unscored {
			return s
		}
		r.featuresInto(t, p.I, p.J, f, &sc)
		s := r.Score(f)
		rp.scores[at[k]] = s
		return s
	}
	conflicts := r.resolveRowsScored(t, rp.DirtyRows[shard], rp.DirtyPairs[shard],
		rp.Plan.FilterPairs(shard, must), rp.Plan.FilterPairs(shard, cannot), score, rp.Roots)
	return conflicts, nil
}

// Clustering numbers the completed roots slab into the round's dense
// clustering — the numbering one sequential ResolveConstrained produces.
// It fails on any row no resolve has reached: every non-reused shard must
// have run ResolveDirty first.
func (rp *RePlanned) Clustering() (*Clustering, error) {
	return numberClusters(rp.Roots)
}

// Commit memoizes the completed round: the plan state, its roots slab
// (kept, not copied) and the score cache (valid carried-over entries and
// everything the resolve fan-out computed fresh).
func (rp *RePlanned) Commit(r *Resolver, rowKeys []string, must, cannot []Pair) (*PlanState, error) {
	return buildPlanState(r, rp.Plan, rowKeys, rp.Roots, must, cannot, rp.scores)
}

// blockCompatible reports whether the memoized block index was built
// under the resolver's current blocking parameters.
func (st *PlanState) blockCompatible(r *Resolver) bool {
	return st.keyCol == r.KeyColumn && st.nameCol == r.NameColumn &&
		st.gram == r.BlockGramSize && st.maxBlock == r.MaxBlockSize
}

// symDiff returns the symmetric difference of two sorted packed pair
// lists — the constraints that appeared or disappeared.
func symDiff(a, b []int64) []int64 {
	var out []int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
