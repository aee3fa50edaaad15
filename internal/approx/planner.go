package approx

import (
	"math"
	"math/rand"

	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// Planner plans routes with an approximated TMM and LM (Section 3.3's
// "Route Planning" procedure): at each epoch, each asset anticipates its
// teammates' moves with the TMM model, treats their believed and predicted
// nodes as blocked, and takes the legal action with the highest predicted
// reward r̂.
//
// Two deployment details beyond the paper's sketch (see DESIGN.md §2):
//
//   - Frontier fallback: when every candidate move has α = 0 (the local
//     neighborhood is fully sensed) and no destination signal exists, the
//     asset heads along a shortest hop path toward the nearest unsensed
//     node. Without this, a greedy r̂ maximizer oscillates between two
//     sensed nodes forever.
//   - A vanishing seeded jitter breaks exact prediction ties
//     deterministically per seed.
type Planner struct {
	model Model
	ext   features.Extractor
	// hint is a per-mission destination surrogate (e.g. the
	// partial-knowledge region center); NoDest when absent.
	hint features.DestArg
	rng  *rand.Rand
	name string
	// prevPos remembers each asset's previous node so that frontier
	// detours do not bounce between two nodes when hop counts and metric
	// distances disagree about which is "closer".
	prevPos map[int]grid.NodeID
	// lastSensed/stall implement a liveness watchdog: a model (especially
	// an under-trained neural one) can prefer a non-exploring move forever
	// while exploring moves exist; after stallPatience epochs without the
	// asset's sensed count growing, Decide forces a frontier step.
	lastSensed map[int]int
	stall      map[int]int
	nav        *sim.Navigator
	opts       Options
	seed       int64
	// budget, when non-nil, is charged one Nodes unit per candidate action
	// evaluated (own moves and TMM teammate rollouts). The nil fast path
	// keeps Decide at its pinned allocation count; exhaustion is observed
	// by the mission loop polling the same budget, not here.
	budget *limits.Budget

	// Per-decision scratch, reused across Decide calls so the steady-state
	// planning path allocates nothing. A planner serves one mission at a
	// time from one goroutine (experiments give every run its own planner;
	// the service keeps one per catalog entry and runs that entry's
	// missions one at a time), and clone() resets the scratch, so reuse is
	// safe.
	blocked   grid.NodeSet
	blockedFn func(grid.NodeID) bool // cached p.blocked.Has method value
	ballSeen  grid.NodeSet
	ballCur   []grid.NodeID
	ballNext  []grid.NodeID
	lmCtx     features.NodeContext
	tmmCtx    features.NodeContext
	actBuf    []sim.Action
	featBuf   []float64
}

// stallPatience is how many epochs without sensing progress a planner
// tolerates before forcing a frontier step.
const stallPatience = 6

// Options disables individual planner mechanisms for ablation studies
// (BenchmarkAblation and `cmd/experiments -only ablation` measure what each
// one contributes). The zero value is the full planner.
type Options struct {
	// NoFrontier disables the frontier fallback: the model's argmax is
	// always followed, even when no move senses anything new.
	NoFrontier bool
	// NoVoronoi disables the frontier's Voronoi partitioning against
	// believed teammate positions.
	NoVoronoi bool
	// NoRightOfWay disables the hop-ball blocking around lower-ID
	// teammates.
	NoRightOfWay bool
	// NoWatchdog disables the stall watchdog.
	NoWatchdog bool
	// NoTMMBlocking disables blocking of TMM-predicted teammate targets
	// (believed current locations are still avoided).
	NoTMMBlocking bool
}

// NewPlanner builds a planner around a fitted model.
func NewPlanner(model Model, ext features.Extractor, seed int64) *Planner {
	return NewPlannerOpts(model, ext, seed, Options{})
}

// NewPlannerOpts builds a planner with mechanisms selectively disabled;
// see Options. Used by the ablation study.
func NewPlannerOpts(model Model, ext features.Extractor, seed int64, opts Options) *Planner {
	p := &Planner{
		opts:       opts,
		model:      model,
		ext:        ext,
		hint:       features.NoDest,
		rng:        rand.New(rand.NewSource(seed)),
		name:       model.Name(),
		prevPos:    make(map[int]grid.NodeID),
		lastSensed: make(map[int]int),
		stall:      make(map[int]int),
		nav:        sim.NewNavigator(),
		seed:       seed,
	}
	p.blockedFn = p.blocked.Has
	return p
}

// Reset returns the planner to the state NewPlanner(model, ext, seed) would
// produce while keeping every allocated scratch buffer: the watchdog maps
// are cleared in place, the rng is reseeded (identical sequence to a fresh
// source), the navigator's mission memory is dropped, and any per-request
// budget or destination hint is detached. The serving catalog therefore keeps
// one planner per (grid, model) entry and Resets it before each mission it
// runs — decisions after Reset(seed) are byte-identical to a freshly
// constructed planner's — without re-allocating the NodeSet stamps and
// feature buffers that dominate construction cost on large grids.
func (p *Planner) Reset(seed int64) {
	clear(p.prevPos)
	clear(p.lastSensed)
	clear(p.stall)
	p.nav = sim.NewNavigator()
	p.seed = seed
	p.rng.Seed(seed)
	p.hint = features.NoDest
	p.budget = nil
	// p.blocked stays in place: blockedFn is a method value bound to its
	// address, and NodeSet.Reset runs on first use anyway. Ball/feature
	// scratch likewise carries no cross-mission state.
}

// clone returns a copy sharing the model and extractor but owning fresh
// per-mission state: watchdog maps, navigator, scratch buffers, and a
// derived rng. A naive struct copy would share those (maps, pointers, and
// slice-backed scratch alias), so running the original and a copy would
// corrupt each other's watchdog, jitter sequence, and blocked sets.
func (p *Planner) clone() *Planner {
	cp := *p
	cp.prevPos = make(map[int]grid.NodeID)
	cp.lastSensed = make(map[int]int)
	cp.stall = make(map[int]int)
	cp.nav = sim.NewNavigator()
	cp.seed = p.seed + 1
	cp.rng = rand.New(rand.NewSource(cp.seed))
	cp.blocked = grid.NodeSet{}
	cp.ballSeen = grid.NodeSet{}
	cp.ballCur, cp.ballNext = nil, nil
	cp.lmCtx = features.NodeContext{}
	cp.tmmCtx = features.NodeContext{}
	cp.actBuf, cp.featBuf = nil, nil
	cp.blockedFn = cp.blocked.Has
	return &cp
}

// WithDestHint returns a copy of the planner that resolves the destination
// to the given node while the true destination is unknown.
func (p *Planner) WithDestHint(hint features.DestArg) *Planner {
	cp := p.clone()
	cp.hint = hint
	return cp
}

// WithMask returns a copy of the planner whose exploration only values
// nodes accepted by mask: the α feature and the frontier fallback ignore
// everything else. The partial-knowledge planner masks to the region known
// to contain the destination.
func (p *Planner) WithMask(mask func(grid.NodeID) bool) *Planner {
	cp := p.clone()
	cp.ext.Mask = mask
	return cp
}

// MaskedTo implements partial.Maskable.
func (p *Planner) MaskedTo(mask func(grid.NodeID) bool) sim.Planner { return p.WithMask(mask) }

// SetBudget attaches a resource budget charged for every candidate node
// the planner expands; the same budget should be passed to the mission via
// sim.RunOptions.Budget so exhaustion aborts the run. Copies made by
// WithDestHint/WithMask share the budget — it is request-scoped, not
// planner-scoped. A nil budget (the default) costs nothing.
func (p *Planner) SetBudget(b *limits.Budget) { p.budget = b }

// Name implements sim.Planner.
func (p *Planner) Name() string { return p.name }

// Model returns the underlying model (for memory accounting).
func (p *Planner) Model() Model { return p.model }

// MemoryBytes reports the planner state deployed across n assets: each
// asset carries its own copy of the model parameters, so the footprint
// scales linearly with the team as in Table 6 (1056 B at |N|=2 vs 2304 B
// at |N|=3).
func (p *Planner) MemoryBytes(nAssets int) int { return nAssets * p.model.Bytes() }

// Decide implements sim.Planner.
func (p *Planner) Decide(m *sim.Mission, i int) sim.Action {
	defer func() { p.prevPos[i] = m.Cur(i) }()
	if sensed := m.Knowledge(i).SensedCount; sensed != p.lastSensed[i] {
		p.lastSensed[i] = sensed
		p.stall[i] = 0
	} else {
		p.stall[i]++
	}
	// Once the true destination is broadcast (rendezvous phase), search
	// behavior is pointless: transit there by shortest path, the same
	// reasoning as the partial-knowledge approach leg.
	if k := m.Knowledge(i); k.DestKnown {
		if a, ok := p.nav.Step(m, i, k.Dest); ok {
			return a
		}
	}
	dest := features.ResolveDest(m, i, p.hint)
	p.predictTeammateNodes(m, i, dest)

	bestAct := sim.Wait
	bestV := math.Inf(-1)
	anyAlpha := false
	ctx := p.ext.LMContextInto(&p.lmCtx, m, i, dest)
	p.actBuf = m.AppendLegalActionsFor(p.actBuf[:0], i)
	_ = p.budget.Charge(limits.Nodes, int64(len(p.actBuf)))
	for _, a := range p.actBuf {
		if !a.IsWait() {
			to, _ := m.Apply(m.Cur(i), a)
			if p.blocked.Has(to) {
				continue
			}
		}
		p.featBuf = ctx.AppendFeatures(p.featBuf[:0], a)
		if p.featBuf[2] > 0 {
			anyAlpha = true
		}
		v := p.model.PredictLM(p.featBuf) + 1e-9*p.rng.Float64()
		if v > bestV {
			bestV = v
			bestAct = a
		}
	}

	// Two overrides keep a mistrained or saturated model from parking:
	// when no candidate move senses anything new, head for the frontier
	// (this applies under a destination *hint* too — the hint is a
	// surrogate, not the real destination; orbiting it finds nothing); and
	// when the model ranks wait above unblocked moves, also prefer the
	// frontier — in this mission model waiting is only ever productive for
	// yielding, and blocked moves were already excluded above.
	// Note the stall counter resets only on sensing progress (above), not
	// here: once the watchdog fires, the asset stays in frontier mode until
	// it actually senses something new, rather than being yanked back by
	// the model after a single frontier hop.
	stalled := !p.opts.NoWatchdog && p.stall[i] >= stallPatience
	if !p.opts.NoFrontier && (!anyAlpha || bestAct.IsWait() || stalled) {
		if a, ok := p.frontierAction(m, i); ok {
			return a
		}
	}
	return bestAct
}

// predictTeammateNodes fills p.blocked with the set of nodes asset i must
// avoid: each teammate's believed location plus the target of its
// TMM-predicted action ("the action a_j with the highest P̂", Section
// 3.3.1). Additionally, lower-ID teammates have right of way: asset i
// avoids every node such a teammate could occupy after this epoch. An asset
// traverses one edge per epoch, so a teammate last seen s epochs ago is
// within s hops of its believed node and within s+1 after the upcoming
// simultaneous move; the whole hop-ball is blocked. This breaks the
// symmetric-policy herding that otherwise drives identically-modeled assets
// onto one node between communications. (Absolute collision freedom is
// unattainable under intermittent communication — a lower-ID asset can
// still step onto a silent waiter — but residual collisions are rare; the
// experiment suite tracks the rate against Baseline-2's near-100%.)
func (p *Planner) predictTeammateNodes(m *sim.Mission, i int, dest features.DestArg) {
	sc := m.Scenario()
	g := m.Grid()
	p.blocked.Reset(g.NumNodes())
	for j := range sc.Team {
		if j == i {
			continue
		}
		vj := m.Knowledge(i).LastKnown[j]
		p.blocked.Add(vj)
		stale := m.Step() - m.Knowledge(i).LastKnownStep[j]
		if stale < 0 {
			stale = 0
		}
		// Reachability gate: after our one-edge move we sit within
		// MaxEdgeWeight of our node; teammate j sits within (stale+1) edges
		// of vj. If those balls cannot intersect, j is irrelevant this
		// epoch — skip the hop-ball and the TMM model entirely. This keeps
		// per-decision cost flat as teams spread out.
		if g.Metric().Distance(g.Pos(m.Cur(i)), g.Pos(vj)) > float64(stale+2)*g.MaxEdgeWeight() {
			continue
		}
		if j < i && !p.opts.NoRightOfWay {
			p.blockHopBall(g, vj, stale+1)
			continue
		}
		if p.opts.NoTMMBlocking {
			continue
		}
		bestP := math.Inf(-1)
		bestTo := vj
		ctx := p.ext.TMMContextInto(&p.tmmCtx, m, i, j, dest)
		p.actBuf = sim.AppendLegalActions(p.actBuf[:0], g, vj, sc.Team[j].MaxSpeed)
		_ = p.budget.Charge(limits.Nodes, int64(len(p.actBuf)))
		for _, a := range p.actBuf {
			p.featBuf = ctx.AppendFeatures(p.featBuf[:0], a)
			pv := p.model.PredictTMM(p.featBuf)
			if pv > bestP {
				bestP = pv
				if a.IsWait() {
					bestTo = vj
				} else {
					bestTo = g.Neighbors(vj)[a.Neighbor].To
				}
			}
		}
		p.blocked.Add(bestTo)
	}
}

// blockHopBall adds every node within radius hops of v to p.blocked, using
// the planner's BFS scratch.
func (p *Planner) blockHopBall(g *grid.Grid, v grid.NodeID, radius int) {
	p.ballSeen.Reset(g.NumNodes())
	p.ballSeen.Add(v)
	p.ballCur = append(p.ballCur[:0], v)
	for hop := 0; hop < radius; hop++ {
		p.ballNext = p.ballNext[:0]
		for _, u := range p.ballCur {
			for _, e := range g.Neighbors(u) {
				if !p.ballSeen.Has(e.To) {
					p.ballSeen.Add(e.To)
					p.blocked.Add(e.To)
					p.ballNext = append(p.ballNext, e.To)
				}
			}
		}
		p.ballCur, p.ballNext = p.ballNext, p.ballCur
		if len(p.ballCur) == 0 {
			break
		}
	}
}

// frontierAction walks asset i toward the nearest unsensed node,
// Voronoi-partitioned against believed teammate positions
// (sim.FrontierStep), avoiding the nodes collected in p.blocked.
func (p *Planner) frontierAction(m *sim.Mission, i int) (sim.Action, bool) {
	return sim.FrontierStep(m, i, p.blockedFn, p.ext.Mask, p.prevPos[i], p.rng, !p.opts.NoVoronoi)
}

// FrontierStep is re-exported from sim for planner implementations built on
// this package (the baselines use it).
func FrontierStep(m *sim.Mission, i int, blocked func(grid.NodeID) bool, mask func(grid.NodeID) bool,
	prev grid.NodeID, rng *rand.Rand, voronoi bool) (sim.Action, bool) {
	return sim.FrontierStep(m, i, blocked, mask, prev, rng, voronoi)
}

// CruiseSpeed is re-exported from vessel: the Table 2 speed rule.
func CruiseSpeed(weight float64, maxSpeed int) int {
	return vessel.CruiseSpeed(weight, maxSpeed)
}
