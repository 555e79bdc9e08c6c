package scenario

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/exor"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/srcr"
	"repro/internal/telemetry"
)

// Run executes a validated spec and returns the sealed result. The
// executor compiles the spec onto the same machinery the figure drivers
// use — experiments.ControlPlane for routing state and congestion wiring,
// sim.Stack (via congest.Combine) where a scenario mixes protocols on one
// medium — then runs the schedule: flows start at their offsets, push
// sources stop at theirs, and degrade/fail_node events mutate the live
// topology (invalidating the oracle, so even perfect-knowledge runs must
// react).
func Run(spec *Spec) (*Result, error) {
	return RunWith(spec, nil)
}

// RunWith executes a spec with an optional telemetry hub installed on the
// simulator. With hub nil it is exactly Run. With a hub, typed events flow
// through it for metrics, Chrome trace capture, and stall dumps, and the
// sealed result carries the metrics Report — telemetry never perturbs the
// simulation, so everything except that extra block (and hence the digest)
// is byte-identical to the uninstrumented run.
func RunWith(spec *Spec, hub *telemetry.Hub) (*Result, error) {
	topo, err := spec.Topology.Build(spec.Seed)
	if err != nil {
		return nil, err
	}
	opts := spec.Options()
	s := sim.New(topo, opts.SimConfig())
	if hub != nil {
		s.Telem = hub
		hub.CountEvents(s.Processed)
	}
	cp := experiments.NewControlPlane(topo, opts)
	n := topo.N()

	// One instance of every protocol in play on every node: any node can
	// forward any flow.
	var (
		coreNodes []*core.Node
		exorNodes []*exor.Node
		srcrNodes []*srcr.Node
	)
	needs := map[string]bool{}
	for _, f := range spec.Flows {
		needs[f.Protocol] = true
	}
	if needs["more"] {
		cfg := opts.CoreConfig()
		coreNodes = make([]*core.Node, n)
		for i := range coreNodes {
			ncfg := cfg
			ncfg.Plan = cp.WithNodeCost(graph.NodeID(i), cfg.Plan)
			coreNodes[i] = core.NewNode(ncfg, cp.Provider(graph.NodeID(i)))
		}
	}
	if needs["exor"] {
		cfg := opts.ExorConfig()
		exorNodes = make([]*exor.Node, n)
		for i := range exorNodes {
			ncfg := cfg
			ncfg.Plan = cp.WithNodeCost(graph.NodeID(i), cfg.Plan)
			exorNodes[i] = exor.NewNode(ncfg, cp.Provider(graph.NodeID(i)))
		}
	}
	if needs["srcr"] || needs[ProtoPush] {
		cfg := opts.SrcrConfig(false)
		srcrNodes = make([]*srcr.Node, n)
		for i := range srcrNodes {
			srcrNodes[i] = srcr.NewNode(cfg, cp.Provider(graph.NodeID(i)))
		}
	}
	for i := 0; i < n; i++ {
		// Priority order: timer-driven srcr/push traffic first (it only
		// offers what its clocks generated), batch protocols last (they are
		// backlogged and would starve everything behind them).
		var members []sim.Protocol
		if srcrNodes != nil {
			members = append(members, srcrNodes[i])
		}
		if exorNodes != nil {
			members = append(members, exorNodes[i])
		}
		if coreNodes != nil {
			members = append(members, coreNodes[i])
		}
		cp.Attach(s, graph.NodeID(i), congest.Combine(members...))
	}

	// Resolve auto-drawn pairs on the built (possibly pre-degraded)
	// topology, in flow order, from the scenario seed.
	nAuto := 0
	for _, f := range spec.Flows {
		if f.AutoPair {
			nAuto++
		}
	}
	autoPairs := experiments.RandomPairs(topo, nAuto, spec.Seed)
	if len(autoPairs) < nAuto {
		return nil, fmt.Errorf("scenario %s: only %d of %d auto pairs reachable on this topology",
			spec.Name, len(autoPairs), nAuto)
	}

	// Measurement-plane warmup (learned state), then the traffic epoch.
	conv := cp.Warmup(s, topo, opts)
	epoch := s.Now()
	deadline := epoch + opts.Deadline
	at := func(offsetS float64) sim.Time {
		d := secs(offsetS) + epoch - s.Now()
		if d < 0 {
			d = 0
		}
		return d
	}

	remaining := len(spec.Flows)
	type flowRun struct {
		spec *FlowSpec
		id   flow.ID
		src  graph.NodeID
		dst  graph.NodeID
		file flow.File
	}
	runs := make([]flowRun, len(spec.Flows))
	byName := make(map[string]flowRun, len(spec.Flows))
	auto := 0
	for i := range spec.Flows {
		f := &spec.Flows[i]
		fr := flowRun{spec: f, id: flow.ID(i + 1), src: graph.NodeID(f.Src), dst: graph.NodeID(f.Dst)}
		if f.AutoPair {
			fr.src, fr.dst = autoPairs[auto].Src, autoPairs[auto].Dst
			auto++
		}
		bytes := f.Traffic.Bytes
		if f.Protocol == ProtoPush {
			bytes = f.Traffic.Packets * spec.PktSize
		}
		fr.file = flow.NewFile(bytes, spec.PktSize, spec.Seed+int64(i))
		runs[i] = fr
		byName[f.Name] = fr

		// Destination-side expectation wiring (protocol-specific callback
		// placement mirrors experiments.RunDetailed).
		markDone := func(flow.Result) { remaining-- }
		var try func() error
		switch f.Protocol {
		case "more":
			coreNodes[fr.dst].ExpectFlow(fr.id, fr.file, nil)
			try = func() error { return coreNodes[fr.src].StartFlow(fr.id, fr.dst, fr.file, markDone) }
		case "exor":
			exorNodes[fr.dst].ExpectFlow(fr.id, fr.file, markDone)
			try = func() error { return exorNodes[fr.src].StartFlow(fr.id, fr.dst, fr.file, nil) }
		case "srcr":
			srcrNodes[fr.dst].ExpectFlow(fr.id, fr.file, nil)
			try = func() error { return srcrNodes[fr.src].StartFlow(fr.id, fr.dst, fr.file, markDone) }
		case ProtoPush:
			tr, err := f.traffic()
			if err != nil {
				return nil, err
			}
			srcrNodes[fr.dst].ExpectFlow(fr.id, fr.file, nil)
			// The stop must hold even when a learned-state start retry
			// succeeds after the stop time has passed (cold starts can wait
			// many seconds for a route): a successful late start is stopped
			// on the spot, so the declared schedule wins either way.
			fr2 := fr
			stopped := false
			try = func() error {
				err := srcrNodes[fr2.src].StartPushFlow(fr2.id, fr2.dst, tr, fr2.file, markDone)
				if err == nil && stopped {
					srcrNodes[fr2.src].StopPushFlow(fr2.id)
				}
				return err
			}
			if f.StopS > 0 {
				s.After(at(f.StopS), func() {
					stopped = true
					srcrNodes[fr2.src].StopPushFlow(fr2.id)
				})
			}
		}
		s.After(at(f.StartS), func() {
			cp.StartFlow(s, deadline, try, func() { remaining-- })
		})
	}

	// The event schedule (declared events plus any expanded churn block)
	// mutates the live topology. The simulator reads delivery probabilities
	// live, so the channel changes instantly; carrier-sense sets keep their
	// pre-event reach (energy detection outlives decodability). The oracle,
	// whose contract is "everyone instantly knows the truth", is invalidated
	// after every topology mutation so plans rebuild; learned state finds
	// out the hard way, through probes and LSAs. set_rate mutates traffic,
	// not topology, so it leaves the oracle alone.
	for _, e := range spec.allEvents() {
		e := e
		s.After(at(e.AtS), func() {
			switch e.Action {
			case ActionDegrade:
				topo.Degrade(e.Drop)
			case ActionFailNode:
				topo.Isolate(graph.NodeID(e.Node))
				s.FailNode(graph.NodeID(e.Node))
			case ActionRecoverNode:
				topo.Restore(graph.NodeID(e.Node))
				s.RecoverNode(graph.NodeID(e.Node))
			case ActionFailLink:
				topo.FailLink(graph.NodeID(e.A), graph.NodeID(e.B))
			case ActionRestoreLink:
				topo.RestoreLink(graph.NodeID(e.A), graph.NodeID(e.B))
			case ActionSetRate:
				fr := byName[e.Flow]
				srcrNodes[fr.src].SetPushRate(fr.id, e.RatePPS)
				return
			}
			if o := cp.Oracle(); o != nil {
				o.Invalidate()
			}
		})
	}

	s.RunWhile(deadline, cp.TransferCond(s, n, &conv, func() bool { return remaining > 0 }))

	// Drain: every flow has met its schedule, but a push source's last
	// packets may still sit in congestion-layer queues, srcr backlogs, or
	// the MACs — datagrams are delivered (or lost) on their own time, and
	// cutting the run here would bill the steady-state queue depth as loss.
	// Keep running while committed traffic exists, still bounded by the
	// deadline. Failed nodes are excluded: their frozen backlogs will never
	// drain.
	inFlight := func() bool {
		for i := 0; i < n; i++ {
			node := s.Node(graph.NodeID(i))
			if node.Failed() {
				continue
			}
			if node.TxQueueActive() {
				return true
			}
			if srcrNodes != nil && srcrNodes[i].Backlog() > 0 {
				return true
			}
		}
		return cp.QueuedData() > 0
	}
	if s.Now() < deadline && inFlight() {
		s.RunWhile(deadline, cp.TransferCond(s, n, &conv, inFlight))
	}

	// Collect per-flow outcomes.
	s.Counters.QueueHWM = cp.QueueHighWater()
	res := &Result{
		Scenario:    spec.Name,
		Nodes:       n,
		Seed:        spec.Seed,
		State:       opts.State,
		CC:          opts.CC.Policy,
		Epoch:       epoch,
		End:         s.Now(),
		Convergence: conv,
		Counters:    s.Counters,
		CCStats:     cp.CCStats(),
	}
	res.ProbeTx, res.FloodTx = cp.ControlTx()
	results := make([]flow.Result, len(runs))
	for i, fr := range runs {
		var r flow.Result
		out := FlowOutcome{Name: fr.spec.Name, Protocol: fr.spec.Protocol}
		switch fr.spec.Protocol {
		case "more":
			r = coreNodes[fr.dst].Result(fr.id)
		case "exor":
			r = exorNodes[fr.dst].Result(fr.id)
		case "srcr":
			r = srcrNodes[fr.dst].Result(fr.id)
		case ProtoPush:
			r = srcrNodes[fr.dst].Result(fr.id)
			tr, _ := fr.spec.traffic()
			out.Traffic = tr.Model
			out.Generated, out.SourceDrops, out.Done = srcrNodes[fr.src].PushStats(fr.id)
		}
		if r.End == 0 || (!r.Completed && r.End < s.Now()) {
			// An unfinished flow occupies its slot to the end of the run.
			r.End = s.Now()
		}
		r.Src, r.Dst = fr.src, fr.dst
		r.Transmissions = s.Counters.TxByFlow[uint32(fr.id)]
		if fr.spec.Protocol != ProtoPush {
			out.Done = r.Completed
		}
		out.Result = r
		results[i] = r
		res.Flows = append(res.Flows, out)
	}
	res.Fairness = experiments.BuildFairness(results, s.Counters)
	if hub != nil {
		res.Telemetry = hub.Report()
	}
	if err := res.seal(); err != nil {
		return nil, err
	}
	return res, nil
}
