package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/memps"
	"hps/internal/serving"
	"hps/internal/simtime"
	"hps/internal/ssdps"
	"hps/internal/trainer"
)

// Serving-tier settings of every shard: the defaults of `hps serve`.
const (
	serveHotCache = 4096
	serveQueue    = 64
	serveWorkers  = 2
	serveBatch    = 512
)

// shard is one in-process MEM-PS shard server, assembled the way
// `hps serve` assembles one: blockio device -> SSD-PS -> MEM-PS -> serving
// handler (plus the push-dedup log) -> TCP server on a loopback port.
type shard struct {
	dev    *blockio.Device
	store  *ssdps.Store
	mem    *memps.MemPS
	srv    *serving.Server
	seqs   *cluster.SeqTracker
	seqLog *cluster.SeqLog
	tcp    *cluster.TCPServer
	// traced is the span-recording wrapper in front of the handler, nil
	// when the shard serves the plain handler.
	traced *tracedHandler
}

// startShard starts shard id of w's deployment over dir. With restore it
// first recovers the SSD-PS state already in dir, as `hps serve -restore`
// does; recoverDur is the time Recover took. With wrap, the span-recording
// wrapper stands in front of the handler.
func startShard(w *workload, id int, dir string, restore bool, seed int64, rec *recorder, wrap bool) (sh *shard, recoverDur time.Duration, err error) {
	spec := w.spec
	dev, err := blockio.NewDevice(dir, hw.DefaultGPUNode().SSD, simtime.NewClock())
	if err != nil {
		return nil, 0, err
	}
	shardParams := spec.SparseParams / int64(w.nodes)
	cacheEntries := w.cacheEntries()
	liveBytes := shardParams * int64(8+embedding.EncodedSize(spec.EmbeddingDim))
	store, err := ssdps.Open(dev, ssdps.Config{Dim: spec.EmbeddingDim, DiskUsageThresholdBytes: 2 * liveBytes})
	if err != nil {
		return nil, 0, err
	}
	if restore {
		start := time.Now()
		if err := store.Recover(); err != nil {
			return nil, 0, fmt.Errorf("recover shard %d: %w", id, err)
		}
		recoverDur = time.Since(start)
		rec.call("ssdps.recover", id, store.Len(), start)
	}
	topo := cluster.Topology{Nodes: w.nodes, GPUsPerNode: 1}
	mem, err := memps.New(memps.Config{
		NodeID:     id,
		Dim:        spec.EmbeddingDim,
		Topology:   topo,
		Transport:  cluster.NoRoute{},
		Store:      store,
		LRUEntries: cacheEntries / 2,
		LFUEntries: cacheEntries - cacheEntries/2,
		Seed:       seed,
	})
	if err != nil {
		return nil, 0, err
	}
	srv, err := serving.New(serving.Config{
		NodeID:        id,
		Topology:      topo,
		Dim:           spec.EmbeddingDim,
		Hidden:        spec.HiddenLayers,
		Local:         mem,
		HotKeyEntries: serveHotCache,
		MaxQueue:      serveQueue,
		Workers:       serveWorkers,
		CoalesceBatch: serveBatch,
	})
	if err != nil {
		return nil, 0, err
	}
	sh = &shard{dev: dev, store: store, mem: mem, srv: srv, seqs: cluster.NewSeqTracker()}
	handler := serving.NewHandler(mem, srv)
	sh.seqLog, _, err = cluster.OpenSeqLog(filepath.Join(dir, "seqlog"), sh.seqs)
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("open seq log: %w", err)
	}
	sh.seqs.AttachLog(sh.seqLog)
	handler.Seqs = sh.seqs
	var served cluster.PullHandler = handler
	if wrap {
		sh.traced = &tracedHandler{Handler: handler, rec: rec, shard: id}
		served = sh.traced
	}
	sh.tcp, err = cluster.ServeTCPOptions("127.0.0.1:0", served, cluster.ServerOptions{Seqs: sh.seqs})
	if err != nil {
		srv.Close()
		sh.seqLog.Close()
		return nil, 0, err
	}
	return sh, recoverDur, nil
}

// stop shuts the shard down in the order `hps serve` does on SIGTERM: stop
// accepting, stop serving, flush the MEM-PS to the SSD-PS, compact and sync
// the dedup log.
func (s *shard) stop() error {
	err := s.tcp.Close()
	s.srv.Close()
	if ferr := s.mem.Flush(); err == nil {
		err = ferr
	}
	if _, cerr := s.seqs.CompactLog(); err == nil {
		err = cerr
	}
	if cerr := s.seqLog.Close(); err == nil {
		err = cerr
	}
	return err
}

// setupTimes splits one deployment's set-up time by the call that spent it.
type setupTimes struct {
	total, shardStart, recover, newTrainer, restore time.Duration
}

// deployment is one trainer plus, in multi-process workloads, the shard
// servers it trains against; everything lives under dir.
type deployment struct {
	dir    string
	shards []*shard
	tr     *trainer.Trainer
	setup  setupTimes
	// examples is the trainer's example count after set-up (the
	// checkpoint's examples after a restore).
	examples int64
}

func (d *deployment) checkpointPath() string { return filepath.Join(d.dir, "checkpoint.json") }

// deploy builds w's system over dir for a run of batches batches in total,
// restoring the checkpoint in dir first when restore is set. The time from
// the first shard start to the end of Restore is the set-up time; rec gets
// a span per set-up call, and with wrap the shards record their handler
// calls too.
func deploy(w *workload, dir string, batches int, restore bool, seed int64, rec *recorder, wrap bool) (*deployment, error) {
	d := &deployment{dir: dir}
	setupID := rec.newID()
	rec.phase.Store(setupID)
	defer rec.phase.Store(0)
	start := time.Now()
	cfg := trainer.Config{
		Spec:           w.spec,
		Data:           w.data(),
		Topology:       cluster.Topology{Nodes: w.nodes, GPUsPerNode: w.gpus},
		BatchSize:      w.batchSize,
		Batches:        batches,
		MaxInFlight:    w.depth,
		Profile:        hw.DefaultGPUNode(),
		Seed:           seed,
		CheckpointPath: d.checkpointPath(),
	}
	if w.remote {
		cfg.RemoteShards = make(map[int]string, w.nodes)
		cfg.ShardState = make(map[int]string, w.nodes)
		cfg.Serve = w.serve
		for id := 0; id < w.nodes; id++ {
			sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", id))
			t := time.Now()
			sh, rd, err := startShard(w, id, sdir, restore, seed, rec, wrap)
			if err != nil {
				d.close()
				return nil, err
			}
			rec.call("cluster.shard_start", id, 0, t)
			d.shards = append(d.shards, sh)
			d.setup.recover += rd
			cfg.RemoteShards[id] = sh.tcp.Addr()
			cfg.ShardState[id] = sdir
		}
		d.setup.shardStart = time.Since(start)
	} else {
		c := w.cacheEntries()
		shard := w.spec.SparseParams / int64(w.nodes)
		cfg.LRUEntries, cfg.LFUEntries = c/2, c-c/2
		cfg.SSDThresholdBytes = 2 * shard * int64(8+embedding.EncodedSize(w.spec.EmbeddingDim))
		cfg.Dir = filepath.Join(dir, "state")
	}
	t := time.Now()
	tr, err := trainer.New(cfg)
	d.setup.newTrainer = time.Since(t)
	rec.call("trainer.new", -1, 0, t)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("trainer.New: %w", err)
	}
	d.tr = tr
	if restore {
		t = time.Now()
		if _, err := tr.Restore(d.checkpointPath()); err != nil {
			d.close()
			return nil, fmt.Errorf("restore: %w", err)
		}
		d.setup.restore = time.Since(t)
		rec.call("trainer.restore", -1, 0, t)
	}
	d.setup.total = time.Since(start)
	rec.record(setupID, 0, "setup", -1, 0, start)
	d.examples = tr.Examples()
	return d, nil
}

// close closes the trainer (which flushes every shard and writes the
// checkpoint manifest), then stops the shard servers.
func (d *deployment) close() error {
	var err error
	if d.tr != nil {
		err = d.tr.Close()
	}
	for _, sh := range d.shards {
		if serr := sh.stop(); err == nil {
			err = serr
		}
	}
	return err
}

// heldOut returns the held-out evaluation stream: a generator seed no
// training stream uses, the same for every run.
func heldOut(w *workload) *dataset.Generator {
	return dataset.NewGenerator(w.data(), heldOutSeed)
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
