package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"iddqsyn/internal/bench"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/serve"
)

// The serve-c17 traffic: an open loop at a fixed offered rate, below the
// 2-worker server's saturation, of C17 jobs so short that admission,
// journal fsyncs, queueing, SSE and publishing do the work.
const (
	serveRate        = 10.0 // offered arrivals per second
	serveTenants     = 2
	serveGenerations = 6
	hitShare         = 0.25            // share of arrivals that resubmit a finished spec
	hitMinAge        = time.Second     // a hit resubmits a spec due at least this long before it
	requestTimeout   = 2 * time.Minute // one request's budget; beyond it the request failed
	probeAppends     = 200             // Journal.Append calls on the probe journal
)

// arrival is one scheduled submission.
type arrival struct {
	due    time.Duration // since the start of the load phase
	tenant string
	seed   int64 // the spec's evolution seed
	of     int   // for a hit, the index of the fresh arrival it resubmits; -1 when fresh
}

// serveSchedule precomputes n arrivals from the seed: exponential
// inter-arrival gaps at serveRate, a tenant each, and for about one in
// four arrivals (those at least hitMinAge into the run) a resubmission
// of an earlier fresh spec instead of a spec with a new unique seed.
func serveSchedule(seed int64, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	out := make([]arrival, n)
	var fresh []int
	var t time.Duration
	for i := range out {
		t += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		a := arrival{due: t, tenant: fmt.Sprintf("tenant-%d", rng.Intn(serveTenants)), of: -1}
		// Fresh arrivals due at least hitMinAge before this one.
		old := sort.Search(len(fresh), func(k int) bool { return out[fresh[k]].due > t-hitMinAge })
		if old > 0 && rng.Float64() < hitShare {
			a.of = fresh[rng.Intn(old)]
			a.seed = out[a.of].seed
		} else {
			s := rng.Int63n(1<<31) + 2
			for used[s] {
				s = rng.Int63n(1<<31) + 2
			}
			used[s] = true
			a.seed = s
			fresh = append(fresh, i)
		}
		out[i] = a
	}
	return out
}

// stamps are one request's client-side timestamps.
type stamps struct {
	sent, acked, running, terminal, resultSent, fetched time.Time
	status                                              int
	res                                                 *serve.JobResult
	err                                                 error
}

// liveServer is an in-process iddqserve behind a loopback listener.
type liveServer struct {
	s    *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// boot starts a server as cmd/iddqserve does by default (2 workers,
// causal tracing of the slowest jobs, warn-level logs) and waits until
// /healthz answers ok. newDur is the serve.New call alone.
func boot(dir string) (ls *liveServer, newDur time.Duration, err error) {
	o := obs.New(obs.NewRunID(), nil, obs.NewLogger(io.Discard, obs.FormatText, obs.LevelWarn))
	o.SetTracer(obs.NewTracer(obs.TracerConfig{Slowest: obs.DefaultSlowestTraces}))
	t0 := time.Now()
	s, err := serve.New(serve.Config{Dir: dir, Obs: o})
	newDur = time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, 0, err
	}
	ls = &liveServer{
		s: s, hs: obs.HardenedServerMax(s.Handler(), serve.MaxSubmitBytes),
		base: "http://" + ln.Addr().String(), done: make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ls.base + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, newDur, nil
			}
		}
		if time.Now().After(deadline) {
			_ = ls.close()
			return nil, 0, errors.New("server not ready after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listener and the job engine and waits for both.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	ls.s.Close()
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// c17Netlist is the bench text every job submits.
var c17Netlist = bench.Format(circuits.C17())

// spec is the job an arrival submits.
func (a arrival) spec() *serve.JobSpec {
	return &serve.JobSpec{Netlist: c17Netlist, Generations: serveGenerations, Seed: a.seed, Tenant: a.tenant}
}

func runServe(a args) (res *result, err error) {
	res = newResult()
	root, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	// Every durable write of the job path waits on the filesystem journal,
	// so a run starts with nothing left to flush (earlier runs' files and
	// deletions, the build) and flushes its own deletions before it ends.
	syscall.Sync()
	defer func() {
		_ = os.RemoveAll(root)
		syscall.Sync()
	}()

	// Set-up: serve.New + Start + listener until /healthz is ok, on a
	// fresh data directory each time; the last server takes the load.
	var setups, news []float64
	var ls *liveServer
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		srv, newDur, err := boot(filepath.Join(root, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		news = append(news, ms(newDur))
		if i < setupReps-1 {
			if err := srv.close(); err != nil {
				return nil, err
			}
			continue
		}
		ls = srv
	}
	defer func() {
		if cerr := ls.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	sched := serveSchedule(a.seed, int(serveRate*float64(a.seconds)))
	epoch, st, err := load(ls.base, sched)
	if err != nil {
		return nil, err
	}
	res.rssMB = peakRSSMB()

	// Every fresh result must equal a direct synthesis of its spec, and
	// every hit must return its fresh spec's result unchanged.
	var l *layerRun
	if a.trace {
		l = newLayerRun(a.seed)
	}
	var fresh, hits, costs, worst []float64
	hitCount := 0
	for i, arr := range sched {
		res.attempted++
		s := &st[i]
		if arr.of >= 0 {
			hitCount++
		}
		err := s.err
		switch {
		case err != nil:
		case arr.of < 0 && s.status != http.StatusAccepted:
			err = fmt.Errorf("fresh submission answered %d, want 202", s.status)
		case arr.of >= 0 && s.status != http.StatusOK:
			err = fmt.Errorf("resubmission answered %d, want 200 (cache hit)", s.status)
		case arr.of >= 0 && (st[arr.of].res == nil || !reflect.DeepEqual(s.res, st[arr.of].res)):
			err = fmt.Errorf("cache hit result differs from arrival %d's", arr.of)
		case arr.of < 0:
			var worstD float64
			if worstD, err = checkDirect(arr.spec(), s.res, l); err == nil {
				worst = append(worst, worstD)
			}
		}
		if err != nil {
			res.fail("arrival %d (seed %d): %v", i, arr.seed, err)
			continue
		}
		lat := ms(s.fetched.Sub(epoch.Add(arr.due)))
		if arr.of >= 0 {
			hits = append(hits, lat)
		} else {
			fresh = append(fresh, lat)
			costs = append(costs, s.res.Cost)
		}
	}
	res.samples["latency_ms"] = fresh
	res.samples["repeat_ms"] = hits
	snap, err := metricz(ls.base)
	if err != nil {
		return nil, err
	}
	if got := snap.Counters[serve.MetricCacheHits]; res.failed == 0 && got != uint64(hitCount) {
		res.fail("server counted %d cache hits, the schedule holds %d", got, hitCount)
	}
	if !a.trace {
		res.endToEnd(median(setups), median(fresh), median(hits), median(costs), median(worst))
		return res, nil
	}
	v := res.values
	v["serve.new_ms"] = median(news)
	v["serve.cache_hit_ratio"] = ratio(float64(snap.Counters[serve.MetricCacheHits]), float64(len(sched)))
	v["serve.jobs"] = float64(len(fresh))
	v["serve.journal_bytes_per_job"] = ratio(float64(ls.s.Journal().Bytes()), float64(len(sched)-hitCount))
	qw := snap.Histograms[serve.MetricQueueWait]
	v["serve.queue_wait_ms_p50"] = 1e3 * qw.Quantile(0.5)
	q := tailQuantile(int(qw.Count), 0.9)
	v["serve.queue_wait_ms_tail"] = 1e3 * qw.Quantile(q)
	res.notes = append(res.notes, fmt.Sprintf("serve.queue_wait_ms_tail = p%g of %d samples", 100*q, qw.Count))
	res.setTail("serve.job_tail_ms", fresh)
	serveLayers(res, epoch, sched, st, l)
	appends, err := probeJournal(filepath.Join(root, "probe"))
	if err != nil {
		return nil, err
	}
	v["serve.journal_append_us_p50"] = median(appends)
	res.samples["serve.journal_append_us"] = appends
	l.finish(res)
	return res, nil
}

// load offers the schedule open-loop: each arrival is sent at its due
// time whatever the earlier ones are doing, over at most nproc client
// connections, and the call returns once every request has ended. Due
// times count from the returned epoch. Request bodies are encoded
// before the clock starts.
func load(base string, sched []arrival) (time.Time, []stamps, error) {
	bodies := make([][]byte, len(sched))
	for i, a := range sched {
		b, err := json.Marshal(a.spec())
		if err != nil {
			return time.Time{}, nil, err
		}
		bodies[i] = b
	}
	nproc := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc,
	}}
	defer client.CloseIdleConnections()
	st := make([]stamps, len(sched))
	var wg sync.WaitGroup
	epoch := time.Now()
	for i := range sched {
		time.Sleep(time.Until(epoch.Add(sched[i].due)))
		st[i].sent = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			request(client, base, sched[i].tenant, bodies[i], &st[i])
		}(i)
	}
	wg.Wait()
	return epoch, st, nil
}

// request submits one spec, follows the job's SSE stream to its
// terminal event unless the submission already reports it done, and
// fetches the result.
func request(client *http.Client, base, tenant string, body []byte, s *stamps) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return
	}
	var js serve.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&js)
	_ = resp.Body.Close()
	s.acked = time.Now()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("submit: status %d (%s)", resp.StatusCode, js.Detail)
		return
	}
	if derr != nil {
		s.err = fmt.Errorf("submit: %w", derr)
		return
	}
	if js.Phase != "done" {
		if s.err = follow(ctx, client, base, js.ID, s); s.err != nil {
			return
		}
	} else {
		s.terminal = s.acked
	}
	s.resultSent = time.Now()
	s.res, s.err = fetchResult(ctx, client, base, js.ID)
	s.fetched = time.Now()
}

// follow reads the job's event stream until done (or failed, an error),
// stamping the running and terminal events.
func follow(ctx context.Context, client *http.Client, base, id string, s *stamps) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Phase  string `json:"phase"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch ev.Phase {
		case "running":
			if s.running.IsZero() {
				s.running = time.Now()
			}
		case "done":
			s.terminal = time.Now()
			return nil
		case "failed":
			return fmt.Errorf("job failed: %s", ev.Detail)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("events stream ended without a terminal event")
}

func fetchResult(ctx context.Context, client *http.Client, base, id string) (*serve.JobResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: status %d", resp.StatusCode)
	}
	var jr serve.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	return &jr, nil
}

// checkDirect synthesizes the spec in-process and compares the server's
// result with it: cost bits, modules, gate groups, generations,
// evaluations and feasibility, plus the rendered report when untraced.
// With l set the direct synthesis is the traced pipeline (itself checked
// against core.SynthesizeContext). It returns the result's worst d.
func checkDirect(spec *serve.JobSpec, jr *serve.JobResult, l *layerRun) (float64, error) {
	c, err := spec.Circuit()
	if err != nil {
		return 0, err
	}
	opt, err := spec.Options()
	if err != nil {
		return 0, err
	}
	var p *partition.Partition
	var er *evolution.Result
	report := ""
	if l != nil {
		p, er, err = l.reference(context.Background(), c, opt)
	} else {
		var sr *core.Result
		sr, err = core.SynthesizeContext(context.Background(), c, opt)
		if err == nil {
			p, er, report = sr.Partition, sr.Evolution, sr.Report()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("direct synthesis: %w", err)
	}
	switch {
	case math.Float64bits(jr.Cost) != math.Float64bits(p.Cost()):
		return 0, fmt.Errorf("cost %v, direct synthesis %v", jr.Cost, p.Cost())
	case jr.Modules != p.NumModules() || jr.Feasible != p.Feasible():
		return 0, errors.New("modules or feasibility differ from direct synthesis")
	case jr.Generations != er.Generations || jr.Evaluations != er.Evaluations:
		return 0, errors.New("generations or evaluations differ from direct synthesis")
	case !slices.EqualFunc(jr.Groups, p.Groups(), slices.Equal[[]int]):
		return 0, errors.New("module gates differ from direct synthesis")
	case report != "" && jr.Report != report:
		return 0, errors.New("report differs from direct synthesis")
	}
	return p.WorstDiscriminability(), nil
}

func metricz(base string) (*obs.MetricsSnapshot, error) {
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("metricz: %w", err)
	}
	return &snap, nil
}

// serveLayers derives the client-side layer metrics from the request
// stamps and records each request as a span tree: the job from its due
// time, with the generator's lateness, the submission, the wait for the
// terminal event, and the result fetch as children.
func serveLayers(res *result, epoch time.Time, sched []arrival, st []stamps, l *layerRun) {
	var submit, hitSubmit, run, fetch []float64
	due, sent := make([]time.Duration, len(sched)), make([]time.Duration, len(sched))
	for i, arr := range sched {
		s := &st[i]
		due[i], sent[i] = arr.due, s.sent.Sub(epoch)
		if s.err != nil || s.fetched.IsZero() {
			continue
		}
		name := "serve.job"
		if arr.of >= 0 {
			name = "serve.hit"
			hitSubmit = append(hitSubmit, ms(s.acked.Sub(s.sent)))
		} else {
			submit = append(submit, ms(s.acked.Sub(s.sent)))
		}
		if !s.running.IsZero() {
			run = append(run, ms(s.terminal.Sub(s.running)))
		}
		fetch = append(fetch, ms(s.fetched.Sub(s.resultSent)))
		root := l.rec.add(name, 0, epoch.Add(arr.due), s.fetched)
		l.rec.add("serve.sched_wait", root, epoch.Add(arr.due), s.sent)
		l.rec.add("serve.submit", root, s.sent, s.acked)
		l.rec.add("serve.events", root, s.acked, s.terminal)
		l.rec.add("serve.result", root, s.resultSent, s.fetched)
	}
	v := res.values
	v["serve.submit_ms_p50"] = median(submit)
	res.setTail("serve.submit_ms_tail", submit)
	v["serve.hit_submit_ms_p50"] = median(hitSubmit)
	v["serve.run_ms_p50"] = median(run)
	v["serve.result_ms_p50"] = median(fetch)
	late := lateness(due, sent)
	res.setTail("serve.sched_late_ms_tail", late)
	res.samples["serve.sched_late_ms"] = late
	res.samples["serve.run_ms"] = run
}

// probeJournal times Journal.Append on a fresh journal in the same
// filesystem as the server's, after the load phase.
func probeJournal(dir string) ([]float64, error) {
	j, err := serve.OpenJournal(dir, serve.JournalOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, probeAppends)
	for i := 0; i < probeAppends; i++ {
		t0 := time.Now()
		if err := j.Append(fmt.Sprintf("jprobe%d", i), serve.EventSubmitted, "probe"); err != nil {
			_ = j.Close()
			return nil, err
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, j.Close()
}
