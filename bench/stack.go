package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/router"
	"gpudvfs/internal/serve"
	"gpudvfs/internal/workloads"
)

// archName is the simulated GPU every workload runs on.
const archName = "GA100"

// deviceSeed seeds the simulated devices' telemetry noise and the
// profiling runs, as the daemons' -seed flag does. It is deployment
// configuration, not input: it stays fixed so that --seed changes only the
// traffic (request names, phase lengths, arrivals) and the layers below
// behave the same way on every seed.
const deviceSeed = 11

// trainModels trains small paper-shaped models in-process, the way
// dvfs-govern does without -models: a fixed-seed sim collection over the
// two micro-benchmarks plus one SPEC kernel, then a short TrainSplit. The
// models are the same for every seed, so the seed only changes the inputs.
func trainModels() (*core.Models, error) {
	dev, err := sim.NewByName(archName, 51)
	if err != nil {
		return nil, err
	}
	nw, err := workloads.ByName("NW")
	if err != nil {
		return nil, err
	}
	coll := dcgm.NewCollector(dev, dcgm.Config{Runs: 2, MaxSamplesPerRun: 8, Seed: 52})
	runs, err := coll.CollectAll(backend.Workloads([]sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), nw}))
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Build(dev.Arch(), runs, dataset.Options{})
	if err != nil {
		return nil, err
	}
	sds, err := dataset.Build(dev.Arch(), runs, dataset.Options{PerSample: true})
	if err != nil {
		return nil, err
	}
	return core.TrainSplit(sds, ds, core.TrainOptions{
		PowerEpochs: 30, TimeEpochs: 15, Hidden: []int{24, 24}, Seed: 1,
	})
}

// replicaConfig is what every replica of a topology, and its standalone
// reference, is built from.
type replicaConfig struct {
	sw       *core.Sweeper
	capacity int // plan-cache entries; 0 is the replica default
	shards   int // plan-cache shards; 0 is the replica default
}

// newReplica assembles one dvfs-served stack over dev, as the daemon does.
func newReplica(rc replicaConfig, dev backend.Device) (*serve.Server, http.Handler, error) {
	srv, err := serve.NewServer(rc.sw, serve.ServerConfig{
		Cache: core.PlanCacheConfig{
			Objective: objective.EDP{},
			Threshold: -1,
			Capacity:  rc.capacity,
			Shards:    rc.shards,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	h, err := serve.NewHandler(srv, serve.HTTPConfig{Device: dev, ProfileSeed: deviceSeed})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, h, nil
}

// answer is what a replica may answer for one workload name. The plan
// cache keys on quantized features, so workloads whose features fall in
// one bucket share an entry, computed from the run of whichever caller
// enters it first: any same-bucket selection may come back, on a hit and
// — when a concurrent same-bucket request wins the entry's computation —
// on a miss too.
type answer struct {
	bodies    [][]byte  // each same-bucket selection under this name, cache_hit false then true
	energyPct []float64 // predicted energy saving of each selection
}

// match reports the index of the reference body equal to got, or -1. An
// odd index is a cache hit; the selection's energy saving is
// energyPct[index/2].
func (a answer) match(got []byte) int {
	for i, b := range a.bodies {
		if bytes.Equal(got, b) {
			return i
		}
	}
	return -1
}

// selectBody is the request body for a workload name.
func selectBody(name string) []byte {
	return []byte(`{"workload":"` + name + `"}`)
}

// refSelect asks h for name's selection through httptest and returns the
// body and its decoded energy saving and cache flag.
func refSelect(h http.Handler, name string) ([]byte, float64, bool, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(selectBody(name))))
	if rec.Code != http.StatusOK {
		return nil, 0, false, fmt.Errorf("reference select %s: status %d: %s", name, rec.Code, rec.Body.Bytes())
	}
	body := append([]byte(nil), rec.Body.Bytes()...)
	var sel struct {
		EnergyPct float64 `json:"energy_pct"`
		CacheHit  bool    `json:"cache_hit"`
	}
	if err := json.Unmarshal(body, &sel); err != nil {
		return nil, 0, false, fmt.Errorf("reference select %s: %w", name, err)
	}
	return body, sel.EnergyPct, sel.CacheHit, nil
}

// renamed returns a select body of workload from re-addressed to workload
// to, with its cache flag set to hit (the body's own flag is false).
func renamed(body []byte, from, to string, hit bool) []byte {
	out := bytes.Replace(body, []byte(`{"workload":"`+from+`"`), []byte(`{"workload":"`+to+`"`), 1)
	if hit {
		out = bytes.Replace(out, []byte(`"cache_hit":false`), []byte(`"cache_hit":true`), 1)
	}
	return out
}

// referenceAnswers asks standalone replicas built from rc, through
// httptest, for every name's selection: each name once on a fresh replica
// for its own selection, then all names in order on one replica, where a
// hit reveals which earlier name's bucket the name shares.
func referenceAnswers(rc replicaConfig, names []string) (map[string]answer, error) {
	dev, err := sim.NewByName(archName, deviceSeed)
	if err != nil {
		return nil, err
	}
	own := make(map[string][]byte, len(names))
	energy := make(map[string]float64, len(names))
	for _, name := range names {
		srv, h, err := newReplica(rc, dev)
		if err != nil {
			return nil, err
		}
		body, e, hit, err := refSelect(h, name)
		srv.Close()
		if err != nil {
			return nil, err
		}
		if hit {
			return nil, fmt.Errorf("reference select %s: a fresh replica reported a cache hit", name)
		}
		own[name], energy[name] = body, e
	}

	shared := rc
	shared.capacity = 1 << 10
	srv, h, err := newReplica(shared, dev)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	leader := make(map[string]string, len(names)) // first name of each bucket
	for i, name := range names {
		body, _, hit, err := refSelect(h, name)
		if err != nil {
			return nil, err
		}
		if !hit {
			leader[name] = name
			continue
		}
		for _, prev := range names[:i] {
			if leader[prev] == prev && bytes.Equal(body, renamed(own[prev], prev, name, true)) {
				leader[name] = prev
				break
			}
		}
		if leader[name] == "" {
			return nil, fmt.Errorf("reference select %s: hit on no earlier selection: %s", name, body)
		}
	}

	out := make(map[string]answer, len(names))
	for _, name := range names {
		var a answer
		for _, m := range names {
			if leader[m] == leader[name] {
				a.bodies = append(a.bodies, renamed(own[m], m, name, false), renamed(own[m], m, name, true))
				a.energyPct = append(a.energyPct, energy[m])
			}
		}
		out[name] = a
	}
	return out, nil
}

// topology is dvfs-router in front of replicas dvfs-served stacks, each on
// its own loopback listener, plus the client the load generator uses.
type topology struct {
	servers     []*serve.Server
	proxy       *router.Proxy
	https       []*http.Server
	serving     sync.WaitGroup
	routerURL   string
	replicaURLs []string
	client      *http.Client
}

// listen serves h on a fresh loopback port and returns its base URL.
func (tp *topology) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	tp.https = append(tp.https, hs)
	tp.serving.Add(1)
	go func() {
		defer tp.serving.Done()
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startTopology builds and starts replicas replicas behind one router.
// conns bounds the client's connections to the router. A non-nil tr puts
// its recorders around the router's and each replica's handler and each
// replica's device.
func startTopology(rc replicaConfig, replicas, conns int, tr *tracer) (*topology, error) {
	tp := &topology{}
	for i := 0; i < replicas; i++ {
		simDev, err := sim.NewByName(archName, deviceSeed+int64(i))
		if err != nil {
			tp.close()
			return nil, err
		}
		var dev backend.Device = simDev
		if tr != nil {
			dev = &tracedDevice{Device: dev, t: tr, profile: "dcgm.profile", depth: 3}
		}
		srv, h, err := newReplica(rc, dev)
		if err != nil {
			tp.close()
			return nil, err
		}
		tp.servers = append(tp.servers, srv)
		if tr != nil {
			h = tr.middleware("serve.replica", 2, h)
		}
		u, err := tp.listen(h)
		if err != nil {
			tp.close()
			return nil, err
		}
		tp.replicaURLs = append(tp.replicaURLs, u)
	}
	p, err := router.New(router.Config{Replicas: tp.replicaURLs})
	if err != nil {
		tp.close()
		return nil, err
	}
	tp.proxy = p
	h := p.Handler()
	if tr != nil {
		h = tr.middleware("router.proxy", 1, h)
	}
	if tp.routerURL, err = tp.listen(h); err != nil {
		tp.close()
		return nil, err
	}
	tp.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return tp, nil
}

// close shuts every listener down, waits for them, and stops the router
// prober and the replicas' batchers.
func (tp *topology) close() {
	if tp.client != nil {
		tp.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := len(tp.https) - 1; i >= 0; i-- {
		tp.https[i].Shutdown(ctx) //nolint:errcheck // best effort; Close below is final
		tp.https[i].Close()
	}
	tp.serving.Wait()
	if tp.proxy != nil {
		tp.proxy.Close()
	}
	for _, s := range tp.servers {
		s.Close()
	}
}

// getJSON decodes a GET response from one of the topology's servers.
func (tp *topology) getJSON(url string, v any) error {
	resp, err := tp.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// replicaStats is the part of a replica's /v1/stats the benchmark reads.
type replicaStats struct {
	Cache struct {
		Hits, Misses, Evictions uint64
	} `json:"cache"`
	Batch struct {
		Batches, Batched uint64
	} `json:"batch"`
}

// routerStats is the part of the router's /v1/stats the benchmark reads.
type routerStats struct {
	Replicas []struct {
		Forwarded uint64 `json:"forwarded"`
	} `json:"replicas"`
}

// stats sums the replicas' counters and returns each replica's forwarded
// count from the router.
func (tp *topology) stats() (replicaStats, []uint64, error) {
	var sum replicaStats
	for _, u := range tp.replicaURLs {
		var s replicaStats
		if err := tp.getJSON(u+"/v1/stats", &s); err != nil {
			return sum, nil, err
		}
		sum.Cache.Hits += s.Cache.Hits
		sum.Cache.Misses += s.Cache.Misses
		sum.Cache.Evictions += s.Cache.Evictions
		sum.Batch.Batches += s.Batch.Batches
		sum.Batch.Batched += s.Batch.Batched
	}
	var rs routerStats
	if err := tp.getJSON(tp.routerURL+"/v1/stats", &rs); err != nil {
		return sum, nil, err
	}
	fwd := make([]uint64, len(rs.Replicas))
	for i, r := range rs.Replicas {
		fwd[i] = r.Forwarded
	}
	return sum, fwd, nil
}

// catalogueRuns profiles the first n catalogue workloads (at least one, at
// most all) once each at the maximum clock, each on its own seeded device.
func catalogueRuns(n int) ([]dcgm.Run, error) {
	all := workloads.All()
	n = max(1, min(n, len(all)))
	runs := make([]dcgm.Run, n)
	for i := range runs {
		s := deviceSeed + int64(i)*101
		run, err := dcgm.NewCollector(sim.New(sim.GA100(), s), dcgm.Config{Seed: s + 1}).ProfileAtMax(all[i])
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", all[i].Name, err)
		}
		runs[i] = run
	}
	return runs, nil
}

// sweepProbe times Sweeper.PredictProfilesInto on runs as one batch,
// repeatedly for dur, and returns the median call in microseconds.
func sweepProbe(sw *core.Sweeper, runs []dcgm.Run, dur time.Duration) (float64, error) {
	dsts := make([][]objective.Profile, len(runs))
	for i := range dsts {
		dsts[i] = make([]objective.Profile, sw.GridSize())
	}
	clamped := make([]core.Clamps, len(runs))
	var times []float64
	start := time.Now()
	for len(times) < 10 || time.Since(start) < dur {
		t0 := time.Now()
		if err := sw.PredictProfilesInto(dsts, clamped, runs); err != nil {
			return 0, err
		}
		times = append(times, us(time.Since(t0)))
	}
	return median(times), nil
}
