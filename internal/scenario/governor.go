package scenario

import "sort"

// governorFailureBudget is how many consecutive deferred (budget-truncated)
// remaps the governor tolerates before it concludes the proposed placements
// are churning faster than the budget can follow and falls back permanently
// to the current placement — the same watchdog discipline as the detection
// policies' remap-failure budget (internal/policy/detect.go).
const governorFailureBudget = 6

// governor is the churn governor: every placement change in the serving
// loop — boundary remaps after membership changes, the online policy's
// intra-interval migrations, the OS load balancer's churn swaps — routes
// through it, and it enforces a hard per-interval budget of moved threads.
//
// Truncation respects move dependencies. A proposed remap decomposes into
// components of the thread-move graph (thread t's move to target[t] depends
// on the thread currently occupying target[t] also moving): simple paths
// ending at a free context, and cycles. A component must be applied whole —
// applying half a cycle would stack two threads on one context — so the
// governor applies components in ascending min-thread order while they fit
// the remaining budget and defers the rest. A deferral starts a doubling
// backoff before the next proposal is considered; a fully applied (or
// empty) proposal resets it.
type governor struct {
	budget      int
	backoffBase uint64

	used          int // moves applied in the current interval
	backoff       uint64
	deferredUntil uint64
	failures      int
	fellBack      bool

	// Report totals.
	applied       int
	deferrals     int
	totalProposed int
}

func newGovernor(budget int, backoffBase uint64) *governor {
	if backoffBase == 0 {
		backoffBase = 1
	}
	return &governor{budget: budget, backoffBase: backoffBase, backoff: backoffBase}
}

// beginInterval resets the per-interval move budget.
func (g *governor) beginInterval() { g.used = 0 }

// backingOff reports whether proposals are currently suppressed, either by
// the doubling backoff after a deferral or permanently by the watchdog
// fallback. now is global virtual time.
func (g *governor) backingOff(now uint64) bool { return g.fellBack || now < g.deferredUntil }

// propose reconciles cur with target under the remaining budget. It returns
// the affinity to apply (nil when nothing moves), the number of threads
// moved, and whether part of the proposal was deferred. cur and target are
// injective placements over the same threads; the returned affinity is too,
// because components are applied whole.
func (g *governor) propose(now uint64, cur, target []int) (aff []int, moved int, deferred bool) {
	if g.fellBack || now < g.deferredUntil {
		return nil, 0, false
	}
	comps := moveComponents(cur, target)
	if len(comps) == 0 {
		return nil, 0, false
	}
	g.totalProposed++
	res := append([]int(nil), cur...)
	skipped := false
	for _, comp := range comps {
		if g.used+len(comp) > g.budget {
			skipped = true
			continue
		}
		for _, t := range comp {
			res[t] = target[t]
		}
		g.used += len(comp)
		moved += len(comp)
	}
	if skipped {
		g.failures++
		g.deferrals++
		g.deferredUntil = now + g.backoff
		g.backoff *= 2
		if g.failures >= governorFailureBudget {
			g.fellBack = true
		}
	} else {
		g.failures = 0
		g.backoff = g.backoffBase
		g.deferredUntil = 0
	}
	g.applied += moved
	if moved == 0 {
		return nil, 0, skipped
	}
	return res, moved, skipped
}

// moveComponents decomposes the placement diff cur -> target into dependency
// components, each listed in chain order, sorted by their minimum thread id
// so the application order is canonical.
func moveComponents(cur, target []int) [][]int {
	n := len(cur)
	moved := make([]bool, n)
	any := false
	for t := 0; t < n; t++ {
		if cur[t] != target[t] {
			moved[t] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	owner := make(map[int]int, n) // context -> thread under cur
	for t := 0; t < n; t++ {
		owner[cur[t]] = t
	}
	// succ(t) is the thread that must vacate target[t] for t to move there.
	succ := make([]int, n)
	hasPred := make([]bool, n)
	for t := 0; t < n; t++ {
		succ[t] = -1
		if !moved[t] {
			continue
		}
		if u, ok := owner[target[t]]; ok && u != t && moved[u] {
			succ[t] = u
			hasPred[u] = true
		}
	}
	visited := make([]bool, n)
	var comps [][]int
	collect := func(start int) {
		var comp []int
		for u := start; u != -1 && !visited[u]; u = succ[u] {
			visited[u] = true
			comp = append(comp, u)
		}
		comps = append(comps, comp)
	}
	// Paths first (a moved thread no one depends on heads each chain), then
	// the remaining unvisited moved threads, which form cycles.
	for t := 0; t < n; t++ {
		if moved[t] && !hasPred[t] && !visited[t] {
			collect(t)
		}
	}
	for t := 0; t < n; t++ {
		if moved[t] && !visited[t] {
			collect(t)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return minThread(comps[i]) < minThread(comps[j]) })
	return comps
}

func minThread(comp []int) int {
	m := comp[0]
	for _, t := range comp[1:] {
		if t < m {
			m = t
		}
	}
	return m
}
