package core

// MaxExactInputs bounds the state-tree width AlgExact accepts.  The exact
// search is the full two-tree branch-and-bound of section 5: a state tree
// over the primary inputs, and at each complete state a gate tree over the
// version choices, both pruned with admissible leakage bounds and the
// incremental delay lower bound (unassigned gates at their fastest version).
// Its search space is 2^(n+2m), so this is for validation on small circuits
// only (paper: "the exponential nature of the problem makes it impossible
// to obtain an exact solution for substantial circuits").
const MaxExactInputs = 16
