package svc

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"risa/internal/faults"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/workload"
)

// Journal and snapshot file names inside the engine's data directory.
const (
	journalFile  = "journal.wal"
	snapshotFile = "snapshot.gob"
)

// Engine is the daemon's single-writer state machine: one sim.Driver,
// one write-ahead journal, and the placement history. All methods must
// be called from one goroutine (the server's worker loop); the Engine
// has no locks by design — serialization is the concurrency model, as
// it is for the schedulers themselves.
//
// Durability contract: an operation is applied only after its journal
// record is fsync'd, and placement requests are deduplicated by VM ID,
// so an at-least-once client (retry until a response arrives) gets
// exactly-once placement across crashes — a retry of an operation that
// was journaled but not acknowledged returns the replayed outcome.
type Engine struct {
	cfg Config
	dir string

	j  *Journal
	st *sched.State
	d  *sim.Driver

	algo      string
	inService int // racks serving traffic; the rest are dark spares

	history []Outcome
	seen    map[int]int // VM ID → history index, the dedup map

	snapEvery int
	sinceSnap int
	replaying bool
}

// engineSnapshot is the on-disk snapshot: everything Open needs to
// resume without replaying the whole journal. History rides along so the
// placement log survives recovery in full.
type engineSnapshot struct {
	Config    Config
	JSeq      int64 // journal records ≤ JSeq are folded into this snapshot
	Algo      string
	InService int
	Driver    *sim.DriverSnapshot
	History   []Outcome
}

// Open builds an engine over the data directory dir, creating it on
// first run. With a snapshot present, the driver is restored from it and
// the journal suffix replayed; otherwise the full journal is replayed
// from genesis. Either way the resulting state is bit-identical to a
// process that executed the whole operation sequence without crashing.
// snapEvery is the number of journal records between automatic
// snapshots (≤0 uses 256).
func Open(dir string, cfg Config, snapEvery int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snapEvery <= 0 {
		snapEvery = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, dir: dir, seen: map[int]int{}, snapEvery: snapEvery}

	snap, err := readSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	if snap != nil && !sameShape(snap.Config, cfg) {
		return nil, fmt.Errorf("svc: snapshot was captured for a different datacenter shape (%+v)", snap.Config.Topology)
	}
	if snap != nil {
		if err := e.restore(snap); err != nil {
			return nil, err
		}
	} else {
		if err := e.genesis(); err != nil {
			return nil, err
		}
	}

	j, recs, err := openJournal(filepath.Join(dir, journalFile), cfg)
	if err != nil {
		return nil, err
	}
	e.j = j
	start := int64(0)
	if snap != nil {
		start = snap.JSeq
		if int64(len(recs)) < start {
			j.Close()
			return nil, fmt.Errorf("svc: snapshot covers journal seq %d but only %d records survive", start, len(recs))
		}
	}
	e.replaying = true
	for _, rec := range recs[int(start):] {
		if _, err := e.apply(rec); err != nil {
			j.Close()
			return nil, fmt.Errorf("svc: replaying journal record %d: %w", rec.Seq, err)
		}
	}
	e.replaying = false
	e.sinceSnap = len(recs) - int(start)
	return e, nil
}

// genesis builds the pristine datacenter: all configured racks plus the
// spares, with every spare's boxes failed (dark) through the driver's
// refcounts. Spare darkness is derived from the config, not journaled —
// both the uncrashed and the recovered process construct it identically.
func (e *Engine) genesis() error {
	tcfg := e.cfg.Topology
	tcfg.Racks += e.cfg.Spares
	st, err := sched.NewState(tcfg, e.cfg.Network)
	if err != nil {
		return err
	}
	sch, err := sched.New(e.cfg.Algo, st, sched.Options{})
	if err != nil {
		return err
	}
	e.st = st
	e.d = sim.NewDriver(st, sch)
	e.algo = e.cfg.Algo
	e.inService = e.cfg.Topology.Racks
	for r := e.inService; r < tcfg.Racks; r++ {
		if err := e.d.Apply(faults.Event{Tier: faults.RackTier, Rack: r}); err != nil {
			return err
		}
	}
	return nil
}

// restore rebuilds the engine from a snapshot: pristine state, scheduler
// by the snapshot's algorithm, driver via sim.RestoreDriver (which
// re-applies spare darkness from the snapshot's failure set), history
// and dedup map verbatim.
func (e *Engine) restore(snap *engineSnapshot) error {
	tcfg := e.cfg.Topology
	tcfg.Racks += e.cfg.Spares
	st, err := sched.NewState(tcfg, e.cfg.Network)
	if err != nil {
		return err
	}
	sch, err := sched.New(snap.Algo, st, sched.Options{})
	if err != nil {
		return err
	}
	d, err := sim.RestoreDriver(st, sch, snap.Driver)
	if err != nil {
		return err
	}
	e.st = st
	e.d = d
	e.algo = snap.Algo
	e.inService = snap.InService
	e.history = snap.History
	for i, o := range e.history {
		e.seen[o.VMID] = i
	}
	return nil
}

// Place journals and applies one placement request. A VM ID already
// decided returns its original outcome (idempotent retry).
func (e *Engine) Place(vm workload.VM) (Outcome, error) {
	if i, ok := e.seen[vm.ID]; ok {
		return e.history[i], nil
	}
	if err := vm.Validate(); err != nil {
		return Outcome{}, fmt.Errorf("svc: invalid VM: %w", err)
	}
	return e.commit(Record{Kind: RecordPlace, VM: vm})
}

// Mutate journals and applies one live fail/heal event at the current
// virtual time. Only box- and rack-scope events over in-service racks
// are accepted.
func (e *Engine) Mutate(ev faults.Event) error {
	if ev.Tier != faults.BoxTier && ev.Tier != faults.RackTier {
		return fmt.Errorf("svc: mutations are box- or rack-scope, got %v", ev.Tier)
	}
	if ev.Rack < 0 || ev.Rack >= e.inService {
		return fmt.Errorf("svc: rack %d outside the %d in-service racks", ev.Rack, e.inService)
	}
	if ev.Tier == faults.BoxTier && (ev.Box < 0 || ev.Box >= e.st.Cluster.Config().BoxesPerRack()) {
		return fmt.Errorf("svc: box %d outside %d boxes per rack", ev.Box, e.st.Cluster.Config().BoxesPerRack())
	}
	ev.T = e.d.Now()
	_, err := e.commit(Record{Kind: RecordMutate, Fault: ev})
	return err
}

// AddRack journals and applies bringing the next spare rack into
// service; it returns the global index of the new rack.
func (e *Engine) AddRack() (int, error) {
	if e.inService >= e.cfg.Topology.Racks+e.cfg.Spares {
		return -1, fmt.Errorf("svc: no spare racks left (%d in service)", e.inService)
	}
	rack := e.inService
	if _, err := e.commit(Record{Kind: RecordAddRack}); err != nil {
		return -1, err
	}
	return rack, nil
}

// Swap journals and applies a scheduler hot-swap. The algorithm must be
// registered; the swap happens at a decision boundary with the topology
// indexes settled (sim.Driver.SetScheduler).
func (e *Engine) Swap(algo string) error {
	if _, err := sched.New(algo, e.st, sched.Options{}); err != nil {
		return err
	}
	_, err := e.commit(Record{Kind: RecordSwap, Algo: algo})
	return err
}

// commit is the write path shared by all mutating operations: journal
// first (fsync'd), then apply, then maybe snapshot.
func (e *Engine) commit(rec Record) (Outcome, error) {
	if err := e.j.Append(&rec); err != nil {
		return Outcome{}, fmt.Errorf("svc: journal append: %w", err)
	}
	out, err := e.apply(rec)
	if err != nil {
		return Outcome{}, err
	}
	e.sinceSnap++
	if e.sinceSnap >= e.snapEvery {
		if err := e.WriteSnapshot(); err != nil {
			return Outcome{}, err
		}
	}
	return out, nil
}

// apply executes one journaled operation against the driver. It is the
// single interpretation point: the live path and crash replay both run
// through it, which is what makes recovery decision-for-decision
// faithful.
func (e *Engine) apply(rec Record) (Outcome, error) {
	switch rec.Kind {
	case RecordPlace:
		if i, ok := e.seen[rec.VM.ID]; ok {
			return e.history[i], nil // duplicate record: replay is idempotent
		}
		out := Outcome{Seq: rec.Seq, VMID: rec.VM.ID, Tier: rec.VM.Tier, CPUBox: -1, RAMBox: -1, STOBox: -1}
		a, t, err := e.d.Place(rec.VM)
		out.T = t
		if err != nil {
			out.Reason = sched.RenderDrop(err, rec.VM)
		} else {
			out.Accepted = true
			out.CPUBox = globalBox(e.st.Cluster, a.CPU)
			out.RAMBox = globalBox(e.st.Cluster, a.RAM)
			out.STOBox = globalBox(e.st.Cluster, a.STO)
			out.InterRack = a.InterRack()
		}
		e.seen[out.VMID] = len(e.history)
		e.history = append(e.history, out)
		return out, nil
	case RecordMutate:
		return Outcome{}, e.d.Apply(rec.Fault)
	case RecordAddRack:
		if e.inService >= e.cfg.Topology.Racks+e.cfg.Spares {
			return Outcome{}, fmt.Errorf("svc: add-rack record %d but no spares left", rec.Seq)
		}
		if err := e.d.Apply(faults.Event{T: e.d.Now(), Repair: true, Tier: faults.RackTier, Rack: e.inService}); err != nil {
			return Outcome{}, err
		}
		e.inService++
		return Outcome{}, nil
	case RecordSwap:
		sch, err := sched.New(rec.Algo, e.st, sched.Options{})
		if err != nil {
			return Outcome{}, err
		}
		e.d.SetScheduler(sch)
		e.algo = rec.Algo
		return Outcome{}, nil
	default:
		return Outcome{}, fmt.Errorf("svc: unknown journal record kind %d", rec.Kind)
	}
}

// globalBox flattens a placement's box coordinate to the global box
// index (-1 for an empty placement).
func globalBox(cl *topology.Cluster, p topology.Placement) int {
	if p.IsZero() {
		return -1
	}
	return p.Box.Rack()*cl.Config().BoxesPerRack() + p.Box.Index()
}

// WriteSnapshot captures the engine at the current event boundary and
// atomically replaces the snapshot file (write-temp, fsync, rename).
// Journal records already folded in are remembered via JSeq, so the next
// Open replays only the suffix.
func (e *Engine) WriteSnapshot() error {
	ds, err := e.d.Snapshot()
	if err != nil {
		return err
	}
	snap := engineSnapshot{
		Config:    e.cfg,
		JSeq:      e.j.NextSeq() - 1,
		Algo:      e.algo,
		InService: e.inService,
		Driver:    ds,
		History:   e.history,
	}
	path := filepath.Join(e.dir, snapshotFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(&snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	e.sinceSnap = 0
	return nil
}

// readSnapshot decodes the snapshot file; a missing file is not an
// error (first run, or crash before the first snapshot).
func readSnapshot(path string) (*engineSnapshot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snap engineSnapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("svc: snapshot undecodable: %w", err)
	}
	return &snap, nil
}

// Close writes a final snapshot and closes the journal. Skipping Close
// (a crash) is always safe — that is the point of the journal — but a
// graceful shutdown bounds the next start's replay to zero records.
func (e *Engine) Close() error {
	snapErr := e.WriteSnapshot()
	closeErr := e.j.Close()
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// Algo returns the live scheduler algorithm name.
func (e *Engine) Algo() string { return e.algo }

// InService returns the number of racks currently serving traffic.
func (e *Engine) InService() int { return e.inService }

// Spares returns the number of dark spare racks remaining.
func (e *Engine) Spares() int { return e.cfg.Topology.Racks + e.cfg.Spares - e.inService }

// Now returns the engine's virtual time.
func (e *Engine) Now() int64 { return e.d.Now() }

// Resident returns the number of VMs currently placed.
func (e *Engine) Resident() int { return e.d.Resident() }

// History returns the placement log; the slice is owned by the engine
// and must not be mutated.
func (e *Engine) History() []Outcome { return e.history }

// WritePlacements renders the placement log, one deterministic line per
// decision — the artifact CI diffs between a crashed-and-recovered run
// and an uncrashed one.
func (e *Engine) WritePlacements(w io.Writer) error {
	for _, o := range e.history {
		if _, err := fmt.Fprintln(w, o.String()); err != nil {
			return err
		}
	}
	return nil
}
