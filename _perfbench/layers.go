package main

import (
	"time"

	"repro/internal/cst"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// layer is one simulator component the traced run charges host time to.
// Every layer boundary is wrapped from outside the program: the benchmark
// interposes on the public interfaces the driver, the CST frontend, the
// NVM device and the durable plane already call through.
type layer uint8

const (
	lDriver        layer = iota // trace.Driver: clock argmin, golden image, record/replay glue
	lWorkloadSetup              // trace.Workload.Setup (untimed by the simulator, kept out of shares)
	lWorkload                   // trace.Workload.Step: live generation over the ds/workload kernels
	lBaseline                   // trace.Scheme.Access of Ideal and the five baselines (coherence+cache)
	lCST                        // trace.Scheme.Access of NVOverlay minus its cst.Backend calls
	lSchemeDrain                // trace.Scheme.Drain, own time of the scheme being drained
	lOMCReceive                 // cst.Backend.ReceiveVersion
	lOMCMinVer                  // cst.Backend.ReportMinVer and LowerMinVer
	lOMCContext                 // cst.Backend.DumpContext
	lOMCSeal                    // omc.Group.Seal at end of run
	lPlaneApply                 // mem.DurablePlane.Apply
	lPlaneSeal                  // mem.DurablePlane.SealEpoch
	lFSWrite                    // fault.File.Write
	lFSSync                     // fault.File.Sync and fault.FS.SyncDir
	lFSOther                    // fault.FS Create/CreateExcl/Rename/Remove
	lTracefile                  // trace.Source.Next over a tracefile.Reader
	nLayers
)

// span is one coarse interval kept whole: a cell, its set-up, drain, OMC
// seal or recovery. Parent is the index of the enclosing span, -1 at top.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer sums per-access spans in memory into per-layer self time,
// inclusive time and call counts. Self time of a layer is the part of its
// spans that no nested layer covers, so the self times of one cell run add
// up to the cell's run time.
type tracer struct {
	t0     time.Time
	last   int64
	stack  []layer
	starts []int64
	self   [nLayers]int64
	incl   [nLayers]int64
	calls  [nLayers]int64

	spans []span
	open  []int

	fsBytes int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// enter opens a span of layer l nested in the innermost open one.
func (t *tracer) enter(l layer) {
	n := t.now()
	if k := len(t.stack); k > 0 {
		t.self[t.stack[k-1]] += n - t.last
	}
	t.last = n
	t.stack = append(t.stack, l)
	t.starts = append(t.starts, n)
	t.calls[l]++
}

// exit closes the innermost open span.
func (t *tracer) exit() {
	n := t.now()
	k := len(t.stack) - 1
	l := t.stack[k]
	t.self[l] += n - t.last
	t.incl[l] += n - t.starts[k]
	t.last = n
	t.stack = t.stack[:k]
	t.starts = t.starts[:k]
}

// begin opens a coarse span and returns its index for end.
func (t *tracer) begin(name string) int {
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span id and any span left open inside it.
func (t *tracer) end(id int) {
	n := t.now()
	for len(t.open) > 0 {
		k := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[k].EndNs = n
		if k == id {
			return
		}
	}
}

// meteredScheme is the untraced run's only interposition: it stamps the
// host clock once per window of simulated accesses so window latency can
// be reported without per-access timing.
type meteredScheme struct {
	trace.Scheme
	window  uint64
	n       uint64
	mark    time.Time
	windows *[]time.Duration
}

func (m *meteredScheme) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	if m.n == 0 {
		m.mark = time.Now()
	}
	m.n++
	if m.n%m.window == 0 {
		now := time.Now()
		*m.windows = append(*m.windows, now.Sub(m.mark))
		m.mark = now
	}
	return m.Scheme.Access(tid, addr, write, data)
}

// tracedScheme charges trace.Scheme calls to the scheme's layer.
type tracedScheme struct {
	trace.Scheme
	tr    *tracer
	layer layer
}

func (s *tracedScheme) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	s.tr.enter(s.layer)
	lat := s.Scheme.Access(tid, addr, write, data)
	s.tr.exit()
	return lat
}

func (s *tracedScheme) Drain(now uint64) {
	id := s.tr.begin("drain")
	s.tr.enter(lSchemeDrain)
	s.Scheme.Drain(now)
	s.tr.exit()
	s.tr.end(id)
}

// setupCost is what a cell's trace.Workload.Setup cost inside Driver.Run;
// the benchmark books it as set-up, not as measured simulation.
type setupCost struct {
	dur           time.Duration
	mallocs, byts uint64
}

// timedWorkload times trace.Workload.Setup in every run, and charges each
// Step to the workload layer in the traced run.
type timedWorkload struct {
	trace.Workload
	tr    *tracer // nil in the untraced run
	setup setupCost
}

func (w *timedWorkload) Setup(h *trace.Heap, rng *sim.RNG) {
	m0 := readMem()
	start := time.Now()
	if w.tr != nil {
		w.tr.enter(lWorkloadSetup)
	}
	w.Workload.Setup(h, rng)
	if w.tr != nil {
		w.tr.exit()
	}
	w.setup.dur = time.Since(start)
	m1 := readMem()
	w.setup.mallocs, w.setup.byts = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
}

func (w *timedWorkload) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	if w.tr == nil {
		return w.Workload.Step(tid, h, rng)
	}
	w.tr.enter(lWorkload)
	ok := w.Workload.Step(tid, h, rng)
	w.tr.exit()
	return ok
}

// tracedSource charges trace.Source.Next to the tracefile layer.
type tracedSource struct {
	src trace.Source
	tr  *tracer
}

func (s tracedSource) Next() (trace.Access, error) {
	s.tr.enter(lTracefile)
	a, err := s.src.Next()
	s.tr.exit()
	return a, err
}

// tracedBackend charges the CST frontend's cst.Backend calls to the OMC.
type tracedBackend struct {
	g  *omc.Group
	tr *tracer
}

func (b tracedBackend) ReceiveVersion(v omc.Version, now uint64) uint64 {
	b.tr.enter(lOMCReceive)
	stall := b.g.ReceiveVersion(v, now)
	b.tr.exit()
	return stall
}

func (b tracedBackend) ReportMinVer(vd int, ver uint64, now uint64) {
	b.tr.enter(lOMCMinVer)
	b.g.ReportMinVer(vd, ver, now)
	b.tr.exit()
}

func (b tracedBackend) LowerMinVer(vd int, ver uint64, now uint64) {
	b.tr.enter(lOMCMinVer)
	b.g.LowerMinVer(vd, ver, now)
	b.tr.exit()
}

func (b tracedBackend) DumpContext(vd int, epoch, now uint64) uint64 {
	b.tr.enter(lOMCContext)
	stall := b.g.DumpContext(vd, epoch, now)
	b.tr.exit()
	return stall
}

// tracedPlane charges mem.DurablePlane Apply and SealEpoch to the mem layer.
type tracedPlane struct {
	mem.DurablePlane
	tr *tracer
}

func (p tracedPlane) Apply(addr uint64, words []uint64) {
	p.tr.enter(lPlaneApply)
	p.DurablePlane.Apply(addr, words)
	p.tr.exit()
}

func (p tracedPlane) SealEpoch(epoch uint64) {
	p.tr.enter(lPlaneSeal)
	p.DurablePlane.SealEpoch(epoch)
	p.tr.exit()
}

// tracedFS charges the durable plane's filesystem calls to the mem layer's
// file-system sub-layers and counts the bytes written.
type tracedFS struct {
	fault.FS
	tr *tracer
}

func (f tracedFS) wrap(file fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, tr: f.tr}, nil
}

func (f tracedFS) Create(name string) (fault.File, error) {
	f.tr.enter(lFSOther)
	defer f.tr.exit()
	return f.wrap(f.FS.Create(name))
}

func (f tracedFS) CreateExcl(name string) (fault.File, error) {
	f.tr.enter(lFSOther)
	defer f.tr.exit()
	return f.wrap(f.FS.CreateExcl(name))
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	f.tr.enter(lFSOther)
	defer f.tr.exit()
	return f.FS.Rename(oldpath, newpath)
}

func (f tracedFS) Remove(name string) error {
	f.tr.enter(lFSOther)
	defer f.tr.exit()
	return f.FS.Remove(name)
}

func (f tracedFS) SyncDir(dir string) error {
	f.tr.enter(lFSSync)
	defer f.tr.exit()
	return f.FS.SyncDir(dir)
}

type tracedFile struct {
	fault.File
	tr *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	f.tr.enter(lFSWrite)
	n, err := f.File.Write(p)
	f.tr.exit()
	f.tr.fsBytes += int64(n)
	return n, err
}

func (f tracedFile) Sync() error {
	f.tr.enter(lFSSync)
	defer f.tr.exit()
	return f.File.Sync()
}

// overlay is what the output checks need from an NVOverlay scheme; both
// core.NVOverlay and the traced rebuild provide it.
type overlay interface {
	Frontend() *cst.Frontend
	Group() *omc.Group
}

// tracedOverlay is NVOverlay assembled from its public parts exactly as
// core.New assembles it (no fault injection, no retention), with the CST
// frontend's backend wrapped so OMC time is separable from CST time. The
// untraced run uses core.New itself; the traced/untraced digest check
// proves the two produce identical simulated outputs.
type tracedOverlay struct {
	cfg    *sim.Config
	nvm    *mem.NVM
	group  *omc.Group
	fe     *cst.Frontend
	clocks *sim.Clocks
	tr     *tracer
}

func newTracedOverlay(cfg *sim.Config, tr *tracer) *tracedOverlay {
	omcs := 4
	if cfg.OMCs > 0 {
		omcs = cfg.OMCs
	}
	var gopts []omc.Option
	if cfg.OMCBuffer {
		gopts = append(gopts, omc.WithBuffer(cfg.OMCBufferSize))
	}
	nvm := mem.NewNVM(cfg)
	dram := mem.NewDRAM(cfg)
	group := omc.NewGroup(cfg, nvm, omcs, gopts...)
	return &tracedOverlay{
		cfg:   cfg,
		nvm:   nvm,
		group: group,
		fe:    cst.New(cfg, dram, tracedBackend{g: group, tr: tr}),
		tr:    tr,
	}
}

func (n *tracedOverlay) Name() string            { return "NVOverlay" }
func (n *tracedOverlay) Bind(clocks *sim.Clocks) { n.clocks = clocks }
func (n *tracedOverlay) NVM() *mem.NVM           { return n.nvm }
func (n *tracedOverlay) Frontend() *cst.Frontend { return n.fe }
func (n *tracedOverlay) Group() *omc.Group       { return n.group }

func (n *tracedOverlay) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	res := n.fe.Access(tid, addr, write, data, n.clocks.Now(tid))
	if res.VDStall > 0 {
		vd := n.cfg.VDOf(tid)
		n.clocks.StallGroup(vd*n.cfg.CoresPerVD, (vd+1)*n.cfg.CoresPerVD, res.VDStall)
	}
	return res.Lat
}

func (n *tracedOverlay) Drain(now uint64) {
	n.fe.Drain(now)
	id := n.tr.begin("seal")
	n.tr.enter(lOMCSeal)
	n.group.Seal(now)
	n.tr.exit()
	n.tr.end(id)
}

func (n *tracedOverlay) Stats() *stats.Set {
	s := stats.NewSet("nvoverlay")
	s.Merge(n.fe.Stats())
	s.Merge(n.group.Stats())
	s.Merge(n.nvm.Stats())
	return s
}

var _ trace.Scheme = (*tracedOverlay)(nil)
