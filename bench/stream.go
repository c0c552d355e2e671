package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"viewstags/internal/alexa"
	"viewstags/internal/geo"
	"viewstags/internal/pipeline"
	"viewstags/internal/server"
	"viewstags/internal/xrand"
)

// dataset is the fixed catalog every daemon is booted over, built the
// same way cmd/serve builds it, plus the views of it request
// generation draws from.
type dataset struct {
	res     *pipeline.Result
	tagSets [][]string // tag lists of the catalog's tagged videos
	videos  []string   // their ids, aligned with tagSets
	codes   []string   // ISO country codes, by geo.CountryID
}

var (
	datasetOnce sync.Once
	theDataset  *dataset
	datasetErr  error
)

// loadDataset builds the catalog once per process; nothing writes to
// it afterwards.
func loadDataset() (*dataset, error) {
	datasetOnce.Do(func() { theDataset, datasetErr = buildDataset() })
	return theDataset, datasetErr
}

func buildDataset() (*dataset, error) {
	res, err := pipeline.FromSynthetic(catalogVideos, catalogSeed, alexa.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("build catalog: %w", err)
	}
	d := &dataset{res: res}
	cat := res.Catalog
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			d.tagSets = append(d.tagSets, names)
			d.videos = append(d.videos, cat.Videos[i].ID)
		}
	}
	for c := 0; c < res.World.N(); c++ {
		d.codes = append(d.codes, res.World.Country(geo.CountryID(c)).Code)
	}
	return d, nil
}

// Stream sizes. Predict bodies are cycled (the daemons hold no
// per-request state, so a repeat costs what a fresh body costs);
// ingest bodies are never reused within a run, because a repeated
// upload would be deduplicated and do less work than the first.
const (
	predictBodies = 4096
	ingestBodies  = 32000
	ingestBatch   = 4
	mintShare     = 0.05 // events that announce a brand-new video
	zipfExponent  = 1.1
)

// callerStream is one closed-loop caller's pre-generated requests.
type callerStream struct {
	predict [][]byte               // /v1/predict bodies
	items   [][][]string           // the tag lists inside each predict body
	ingest  [][]byte               // /v1/ingest bodies (mixed workloads only)
	events  [][]server.IngestEvent // the events inside each ingest body
	// phase offsets the 80/20 interleave so the callers do not send
	// their writes in lockstep.
	phase int
}

// isIngest reports whether the caller's k-th operation is a write: every
// fifth one, deterministically, so the read/write order is a function
// of the stream alone.
func (s *callerStream) isIngest(k int) bool {
	return len(s.ingest) > 0 && (k+s.phase)%5 == 4
}

// genStreams builds every caller's requests from seed. The same seed
// gives byte-identical streams; nothing else about a run is random.
func genStreams(d *dataset, w workload, seed uint64) ([]*callerStream, error) {
	root := xrand.NewSource(seed)
	out := make([]*callerStream, callers)
	for c := range out {
		src := root.Fork(fmt.Sprintf("caller-%d", c))
		s := &callerStream{phase: 2 * c}
		zipf := xrand.NewZipf(src.Fork("reads"), zipfExponent, len(d.tagSets))
		for i := 0; i < predictBodies; i++ {
			req := server.PredictRequest{Weighting: "idf", Top: topK, Batch: make([]server.PredictItem, w.batch)}
			items := make([][]string, w.batch)
			for j := range items {
				items[j] = d.tagSets[zipf.Rank()]
				req.Batch[j] = server.PredictItem{Tags: items[j]}
			}
			body, err := json.Marshal(&req)
			if err != nil {
				return nil, err
			}
			s.predict = append(s.predict, body)
			s.items = append(s.items, items)
		}
		if w.mixed {
			if err := genIngest(d, s, src.Fork("writes"), seed, c); err != nil {
				return nil, err
			}
		}
		out[c] = s
	}
	return out, nil
}

func genIngest(d *dataset, s *callerStream, src *xrand.Source, seed uint64, caller int) error {
	zipf := xrand.NewZipf(src.Fork("videos"), zipfExponent, len(d.tagSets))
	minted := 0
	for i := 0; i < ingestBodies; i++ {
		events := make([]server.IngestEvent, ingestBatch)
		for j := range events {
			v := zipf.Rank()
			e := server.IngestEvent{
				Video:   d.videos[v],
				Tags:    d.tagSets[v],
				Country: d.codes[src.Intn(len(d.codes))],
				Views:   float64(1 + src.Intn(50)),
			}
			if src.Bernoulli(mintShare) {
				// A fresh upload carrying an existing video's tags: it
				// grows the corpus and the tags' document frequencies.
				e.Video = fmt.Sprintf("bench-%d-%d-%d", seed, caller, minted)
				e.Upload = true
				minted++
			}
			events[j] = e
		}
		body, err := json.Marshal(&server.IngestRequest{Events: events})
		if err != nil {
			return err
		}
		s.ingest = append(s.ingest, body)
		s.events = append(s.events, events)
	}
	return nil
}
