// Package coalition implements the hedonic coalition-formation game engine
// behind CCSGA.
//
// Agents (devices) each pick one strategy (a charger); the set of agents on
// the same strategy forms a coalition. The engine runs switch dynamics —
// repeatedly letting agents deviate to a strategy that improves their own
// cost share — until no agent wants to move (a pure Nash equilibrium) or an
// iteration cap is reached. A stability checker verifies the output.
package coalition

import (
	"errors"
	"fmt"
	"math/rand"
)

// Game is the cost-sharing game played by the agents. Implementations own
// the coalition state and must keep Share consistent with the moves the
// engine commits via Move.
type Game interface {
	// NumAgents returns the number of agents.
	NumAgents() int
	// NumStrategies returns the number of strategies (coalition slots).
	NumStrategies() int
	// Share returns the cost the agent would pay if its strategy were s,
	// holding all other agents fixed. When s is the agent's current
	// strategy this is its current share.
	Share(agent, s int) float64
	// Move commits agent's switch from strategy `from` to strategy `to`.
	// The engine guarantees `from` is the agent's current strategy.
	Move(agent, from, to int)
}

// SocialGame is a Game that can also report total social cost, enabling
// the potential-based switch rule.
type SocialGame interface {
	Game
	// TotalCost returns the current total cost across all coalitions.
	TotalCost() float64
}

// BoundedGame is a Game that can bound hypothetical shares from below
// more cheaply than computing them. Under the Selfish rule the engine
// checks the bound first and skips a strategy when even the bound cannot
// beat the best share found so far, so an exact bound leaves the argmin,
// the epsilon tie-breaks and the move sequence unchanged.
type BoundedGame interface {
	Game
	// ShareBounds returns a slice indexed by strategy whose entry s is
	// never larger than Share(agent, s), as computed in floating point,
	// for every s other than the agent's current strategy; nil means no
	// bound. The slice is read-only and valid until the next call or
	// Move.
	ShareBounds(agent int) []float64
}

// Rule selects which deviations the dynamics accept.
type Rule int

const (
	// Selfish accepts a switch when it strictly lowers the moving agent's
	// own share — the paper's device-utility rule.
	Selfish Rule = iota + 1
	// Social accepts a switch when it strictly lowers total cost; total
	// cost is then a potential function, so convergence is guaranteed.
	// Requires a SocialGame.
	Social
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case Selfish:
		return "selfish"
	case Social:
		return "social"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Options configures Run.
type Options struct {
	// Rule is the deviation rule; default Selfish.
	Rule Rule
	// MaxPasses caps the number of full sweeps over the agents; default
	// 10·NumAgents + 100.
	MaxPasses int
	// Epsilon is the minimum strict improvement for a switch; default 1e-9.
	Epsilon float64
	// Rand, when non-nil, randomizes the agent visiting order each pass.
	// Nil means deterministic round-robin (agent 0, 1, …).
	Rand *rand.Rand
}

func (o Options) withDefaults(n int) Options {
	if o.Rule == 0 {
		o.Rule = Selfish
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 10*n + 100
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-9
	}
	return o
}

// Result reports the outcome of the switch dynamics.
type Result struct {
	// Assignment maps each agent to its final strategy.
	Assignment []int
	// Switches is the total number of accepted deviations.
	Switches int
	// Passes is the number of full sweeps performed.
	Passes int
	// Converged reports whether a full pass completed with no switch
	// (i.e. the assignment is switch-stable).
	Converged bool
}

// Run executes switch dynamics from the initial assignment and returns the
// final assignment. init must assign every agent a valid strategy; it is
// not modified.
func Run(g Game, init []int, opts Options) (Result, error) {
	n, m := g.NumAgents(), g.NumStrategies()
	if len(init) != n {
		return Result{}, fmt.Errorf("coalition: init length %d, want %d agents", len(init), n)
	}
	if m < 1 {
		return Result{}, errors.New("coalition: no strategies")
	}
	o := opts.withDefaults(n)
	if o.Rule == Social {
		if _, ok := g.(SocialGame); !ok {
			return Result{}, errors.New("coalition: Social rule requires a SocialGame")
		}
	}

	assign := make([]int, n)
	for a, s := range init {
		if s < 0 || s >= m {
			return Result{}, fmt.Errorf("coalition: agent %d has invalid strategy %d", a, s)
		}
		assign[a] = s
	}

	bound, _ := g.(BoundedGame)
	res := Result{}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for pass := 0; pass < o.MaxPasses; pass++ {
		res.Passes++
		if o.Rand != nil {
			o.Rand.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		moved := false
		for _, a := range order {
			if bestResponse(g, bound, assign, a, o) {
				moved = true
				res.Switches++
			}
		}
		if !moved {
			res.Converged = true
			break
		}
	}
	res.Assignment = assign
	return res, nil
}

// bestResponse moves agent a to its best strictly-improving strategy, if
// any, and reports whether it moved. bound, when non-nil, is g's
// lower-bound view (Selfish rule only).
func bestResponse(g Game, bound BoundedGame, assign []int, a int, o Options) bool {
	cur := assign[a]
	switch o.Rule {
	case Social:
		sg := g.(SocialGame) // checked in Run
		base := sg.TotalCost()
		bestS, bestTotal := cur, base
		for s := 0; s < g.NumStrategies(); s++ {
			if s == cur {
				continue
			}
			sg.Move(a, cur, s)
			if t := sg.TotalCost(); t < bestTotal-o.Epsilon {
				bestS, bestTotal = s, t
			}
			sg.Move(a, s, cur)
		}
		if bestS == cur {
			return false
		}
		sg.Move(a, cur, bestS)
		assign[a] = bestS
		return true
	default: // Selfish
		var bounds []float64
		if bound != nil {
			bounds = bound.ShareBounds(a)
		}
		bestS := cur
		bar := g.Share(a, cur) - o.Epsilon // a switch must undercut this
		for s := 0; s < g.NumStrategies(); s++ {
			if s == cur {
				continue
			}
			// Share ≥ bound ≥ bar cannot pass the test below.
			if bounds != nil && bounds[s] >= bar {
				continue
			}
			if sh := g.Share(a, s); sh < bar {
				bestS, bar = s, sh-o.Epsilon
			}
		}
		if bestS == cur {
			return false
		}
		g.Move(a, cur, bestS)
		assign[a] = bestS
		return true
	}
}

// Violation describes an agent that can profitably deviate.
type Violation struct {
	Agent    int
	From, To int
	// Gain is the strict share reduction available to the agent.
	Gain float64
}

// NashViolations returns every profitable unilateral deviation available
// under the current assignment (empty ⇒ pure Nash equilibrium within eps).
// It does not modify the game state: Share is queried hypothetically.
func NashViolations(g Game, assign []int, eps float64) []Violation {
	var out []Violation
	for a := 0; a < g.NumAgents(); a++ {
		cur := assign[a]
		curShare := g.Share(a, cur)
		for s := 0; s < g.NumStrategies(); s++ {
			if s == cur {
				continue
			}
			if sh := g.Share(a, s); sh < curShare-eps {
				out = append(out, Violation{Agent: a, From: cur, To: s, Gain: curShare - sh})
			}
		}
	}
	return out
}

// IsNash reports whether the assignment is a pure Nash equilibrium within
// eps.
func IsNash(g Game, assign []int, eps float64) bool {
	for a := 0; a < g.NumAgents(); a++ {
		cur := assign[a]
		curShare := g.Share(a, cur)
		for s := 0; s < g.NumStrategies(); s++ {
			if s != cur && g.Share(a, s) < curShare-eps {
				return false
			}
		}
	}
	return true
}

// Coalitions groups agents by strategy: Coalitions(assign, m)[s] lists the
// agents whose strategy is s (empty slices for unused strategies).
func Coalitions(assign []int, numStrategies int) [][]int {
	out := make([][]int, numStrategies)
	for a, s := range assign {
		if s >= 0 && s < numStrategies {
			out[s] = append(out[s], a)
		}
	}
	return out
}
