package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"celeste/internal/geom"
	"celeste/internal/imageio"
	"celeste/internal/model"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

// sceneSpec fixes one inference workload's scene and run configuration. The
// scene (truth and pixels) comes from SceneSeed and never changes; the
// workload seed draws the positions of the preexisting catalog the fit
// starts from (see initCatalog), so every seed is a different input on the
// same sky and run cost stays comparable across seeds.
type sceneSpec struct {
	SceneSeed      uint64
	Side           float64 // region side, degrees
	Density        float64 // sources per square degree
	Field          int     // field side, pixels
	Runs, DeepRuns int     // full-coverage epochs, extra epochs over half
	FluxMean       float64 // mean reference-band flux, nmgy
	TargetWork     float64 // partition knob
	Rounds         int
	MaxIter        int
	DrawSeconds    float64 // nominal seconds per run, which sizes the run count
}

// draws is how many runs, each from its own catalog draw, fit in the
// measured time besides the query stretch. It depends only on --seconds, so
// a seed always means the same inputs, however fast the host is that day.
func (sp sceneSpec) draws(seconds time.Duration) int {
	return max(1, int((seconds-inferServe.fixed).Seconds()/sp.DrawSeconds))
}

var sceneSpecs = map[string]sceneSpec{
	// One field per band and epoch, two epochs over the deep half, and one
	// task per stage holding ~26 blended sources.
	wlScene: {SceneSeed: 1, Side: 0.01, Density: 200000, Field: 184, Runs: 1, DeepRuns: 1,
		FluxMean: 12, TargetWork: 1e9, Rounds: 1, MaxIter: 12, DrawSeconds: 3.6},
	// A sparse sky cut into ~40 small tasks, most holding zero to two
	// sources, so wire, scheduling and checkpoint work is a large share.
	wlSpawn: {SceneSeed: 7, Side: 0.03, Density: 25000, Field: 548, Runs: 1, DeepRuns: 0,
		FluxMean: 12, TargetWork: 3e4, Rounds: 1, MaxIter: 10, DrawSeconds: 3.3},
}

func (sp sceneSpec) config(runs bool) survey.Config {
	cfg := survey.DefaultConfig(sp.SceneSeed)
	cfg.Region = geom.NewBox(0, 0, sp.Side, sp.Side)
	cfg.DeepRegion = geom.NewBox(0, 0, sp.Side, sp.Side/2)
	cfg.Runs, cfg.DeepRuns = sp.Runs, sp.DeepRuns
	if !runs {
		cfg.Runs, cfg.DeepRuns = 0, 0
	}
	cfg.SourceDensity = sp.Density
	cfg.FieldW, cfg.FieldH = sp.Field, sp.Field
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(sp.FluxMean), math.Log(1.3 * sp.FluxMean)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.6, 0.6}
	return cfg
}

// initSeed derives the seed of the workload seed's draw-th preexisting
// catalog.
func initSeed(seed uint64, draw int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(draw)*0xbf58476d1ce4e5b9 + 1
}

// initCatalog returns the workload seed's draw-th preexisting catalog for a
// rendered scene. Its errors have the sizes survey.NoisyCatalog gives them
// (0.7 px of position jitter, 15% flux scatter, 10% type confusion, galaxy
// shape noise), but only the position jitter comes from the draw: the flux,
// type and shape errors come from the scene's own seed and are the same in
// every draw. Those errors set each source's influence radius, and with it
// the pixels a fit visits and the conflict graph Cyclades plans over. Drawn
// per seed, they moved one infer_scene inference's wall time by 17% between
// draws (3.5 to 7.2 s over twenty), as the type confusion and radii changed
// how well two threads shared the batches; with them fixed by the scene the
// draws read 3.5 to 4.3 s, close to one draw's own repeat-to-repeat scatter.
func initCatalog(sv *survey.Survey, seed uint64, draw int) []model.CatalogEntry {
	pos := rng.New(initSeed(seed, draw))
	r := rng.New(sv.Config.Seed ^ 0x1a17ca7a)
	jit := 0.7 * sv.Config.PixScale
	out := make([]model.CatalogEntry, len(sv.Truth))
	for i, e := range sv.Truth {
		n := e
		n.Pos.RA += pos.Normal() * jit
		n.Pos.Dec += pos.Normal() * jit
		for b := 0; b < model.NumBands; b++ {
			n.Flux[b] = e.Flux[b] * math.Exp(r.Normal()*0.15)
		}
		if r.Float64() < 0.10 {
			n.ProbGal = 1 - math.Round(e.ProbGal)
		}
		if n.IsGal() {
			if n.GalScale <= 0 {
				n.GalScale = math.Exp(sv.Config.Priors.GalScaleLogMean)
			}
			n.GalScale *= math.Exp(r.Normal() * 0.2)
			n.GalAxisRatio = clamp(n.GalAxisRatio+r.Normal()*0.08, 0.02, 0.98)
			n.GalDevFrac = clamp(n.GalDevFrac+r.Normal()*0.1, 0.02, 0.98)
			n.GalAngle = math.Mod(n.GalAngle+r.Normal()*0.15+math.Pi, math.Pi)
		}
		out[i] = n
	}
	return out
}

func clamp(x, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, x)) }

// digestDraws is how many of a seed's catalog draws the input digest covers.
const digestDraws = 8

// generate renders the scene and draws the seed's first initialization
// catalog.
func (sp sceneSpec) generate(seed uint64) (*survey.Survey, []model.CatalogEntry) {
	sv := survey.Generate(sp.config(true))
	return sv, initCatalog(sv, seed, 0)
}

// inputDigest hashes everything the seed draws for a workload plus the
// fixed configuration. Survey.Generate draws the source population before
// any image, so the truth-only survey below has the same sources as the
// rendered scene, and the digest is cheap enough for tests.
func inputDigest(workload string, seed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", workload)
	if sp, ok := sceneSpecs[workload]; ok {
		b, _ := json.Marshal(sp) // plain struct of numbers: cannot fail
		h.Write(b)
		sv := survey.Generate(sp.config(false))
		for d := 0; d < digestDraws; d++ {
			hashCatalog(h, initCatalog(sv, seed, d))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	in := newCatalogInputs(seed)
	hashCatalog(h, in.truth)
	hashCatalog(h, in.init)
	g := in.targets()
	for i := 0; i < 256; i++ {
		fmt.Fprintln(h, g.next())
	}
	idx, ents := in.writerBatch(0)
	for k := range idx {
		binary.Write(h, binary.LittleEndian, int64(idx[k]))
		hashCatalog(h, ents[k:k+1])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashCatalog(h io.Writer, cat []model.CatalogEntry) {
	b, _ := json.Marshal(cat) // entries are plain numbers: cannot fail
	h.Write(b)
}

// writeSkyDir writes the scene the way skygen does: one file per frame,
// truth.jsonl and init.jsonl.
func writeSkyDir(dir string, sv *survey.Survey, init []model.CatalogEntry) error {
	if err := imageio.WriteSurveyDir(dir, sv); err != nil {
		return fmt.Errorf("writing sky dir: %w", err)
	}
	return imageio.WriteCatalog(filepath.Join(dir, "init.jsonl"), init)
}

// loadSkyDir reads a sky directory back the way `celeste -sky` does and
// rebuilds the survey container around the frames.
func loadSkyDir(dir string) (*survey.Survey, []model.CatalogEntry, error) {
	images, truth, err := imageio.ReadSurveyDir(dir)
	if err != nil {
		return nil, nil, err
	}
	init, err := imageio.ReadCatalog(filepath.Join(dir, "init.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	sv := &survey.Survey{Images: images, Truth: truth}
	if len(images) > 0 {
		fp := images[0].Footprint()
		for _, im := range images[1:] {
			f := im.Footprint()
			fp.MinRA = math.Min(fp.MinRA, f.MinRA)
			fp.MinDec = math.Min(fp.MinDec, f.MinDec)
			fp.MaxRA = math.Max(fp.MaxRA, f.MaxRA)
			fp.MaxDec = math.Max(fp.MaxDec, f.MaxDec)
		}
		sv.Config.Region = fp
		sv.Config.PixScale = images[0].WCS.PixScale()
		sv.Config.FieldW = images[0].W
		sv.Config.FieldH = images[0].H
	}
	return sv, init, nil
}

// catalogInputs is the catserve_http input: a synthetic source population
// over one square degree (the truth), the preexisting catalog the store is
// built from, and seeded generators for the query targets and the writer's
// commit stream.
type catalogInputs struct {
	seed     uint64
	bounds   geom.Box
	pixScale float64
	truth    []model.CatalogEntry
	init     []model.CatalogEntry
}

const (
	catalogSources = 20000 // store size; 200k saturates a 2-CPU host at 1000 rps
	applyBatch     = 256   // entries per Store.Apply
	hotTargets     = 64    // distinct repeated targets
	hotShare       = 0.8   // share of queries aimed at a hot target
)

func newCatalogInputs(seed uint64) *catalogInputs {
	cfg := survey.DefaultConfig(seed)
	in := &catalogInputs{seed: seed, bounds: geom.NewBox(0, 0, 1, 1), pixScale: cfg.PixScale}
	r := rng.New(seed ^ 0xc47a1065)
	in.truth = make([]model.CatalogEntry, catalogSources)
	for i := range in.truth {
		pos := geom.Pt2{RA: r.Float64(), Dec: r.Float64()}
		in.truth[i] = cfg.Priors.Sample(r, i, pos)
	}
	sv := &survey.Survey{Config: cfg, Truth: in.truth}
	in.init = sv.NoisyCatalog(initSeed(seed, 0))
	return in
}

// writerBatch returns the k-th commit of the imitation fit: a fixed-size
// run of consecutive sources, each re-estimated as truth plus
// posterior-sized noise (0.3 px in position, 5% in flux).
func (in *catalogInputs) writerBatch(k int) ([]int, []model.CatalogEntry) {
	r := rng.New(in.seed*0x2545f4914f6cdd1d + uint64(k) + 7)
	idx := make([]int, applyBatch)
	ents := make([]model.CatalogEntry, applyBatch)
	for j := range idx {
		i := (k*applyBatch + j) % len(in.truth)
		e := in.truth[i]
		e.Pos.RA += r.Normal() * 0.3 * in.pixScale
		e.Pos.Dec += r.Normal() * 0.3 * in.pixScale
		for b := range e.Flux {
			e.Flux[b] *= math.Exp(r.Normal() * 0.05)
			e.FluxSD[b] = 0.05 * e.Flux[b]
		}
		idx[j], ents[j] = i, e
	}
	return idx, ents
}

// targetGen draws the seeded query mix: hotShare of the queries repeat one
// of hotTargets fixed targets, the rest are unique cones.
type targetGen struct {
	r    *rng.Source
	box  geom.Box
	cone float64 // smallest cone radius as a fraction of the footprint
	hot  []string
}

func (in *catalogInputs) targets() *targetGen { return newTargetGen(in.seed, in.bounds, 0.01) }

// newTargetGen seeds a target stream over box. Cone radii run from cone to
// three times cone of the footprint's width.
func newTargetGen(seed uint64, box geom.Box, cone float64) *targetGen {
	g := &targetGen{r: rng.New(seed ^ 0x5eed7a26e7), box: box, cone: cone}
	for i := 0; i < hotTargets; i++ {
		g.hot = append(g.hot, g.draw(i))
	}
	return g
}

// draw makes one target: mostly cones, some boxes and brightest-N lists,
// sized relative to the footprint.
func (g *targetGen) draw(i int) string {
	w, h := g.box.Width(), g.box.Height()
	ra := g.box.MinRA + g.r.Float64()*w
	dec := g.box.MinDec + g.r.Float64()*h
	switch i % 8 {
	case 6:
		bw, bh := 0.05*w, 0.05*h
		return fmt.Sprintf("/box?ramin=%.6f&decmin=%.6f&ramax=%.6f&decmax=%.6f", ra, dec, ra+bw, dec+bh)
	case 7:
		return fmt.Sprintf("/brightest?n=%d", 8+g.r.Intn(25))
	default:
		return fmt.Sprintf("/cone?ra=%.6f&dec=%.6f&r=%.6f", ra, dec, g.cone*(1+2*g.r.Float64())*w)
	}
}

// next returns the next target of the stream.
func (g *targetGen) next() string {
	if g.r.Float64() < hotShare {
		return g.hot[g.r.Intn(len(g.hot))]
	}
	return g.draw(0)
}
