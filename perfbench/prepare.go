package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/service"
	"repro/internal/shardedbypass"
	"repro/internal/store"
)

// Prepared inputs, relative to the inputs directory. The small collection
// is generated by fbserve itself and needs only its labels here. The
// large collection appears twice (hard-linked): fbserve loads an FBIX
// sidecar sitting next to an FBMX file, so the exact-scan workload reads
// a copy in a directory without one.
const (
	smallLabels   = "small/labels.json"
	largeFBMX     = "large/collection.fbmx"
	largeLabels   = "large/labels.json"
	largeIVFFBMX  = "large-ivf/collection.fbmx"
	largeIVFFBIX  = "large-ivf/collection.fbix"
	durableTmpl   = "durable-template"
	inputsVersion = "inputs-v2" // bumped whenever the generated inputs change
)

// inputs is the prepared, content-hashed input set.
type inputs struct {
	dir  string
	hash string
}

func (in *inputs) path(rel string) string { return filepath.Join(in.dir, rel) }

// prepareInputs returns the checkout's input set, building it first if
// it is missing. Building is deterministic (fixed collection seed, seeded
// k-means, sequential template sessions) and untimed; the content hash
// is recomputed on every run.
func prepareInputs(root string, c config) (*inputs, error) {
	dir := relBuild(root, inputsVersion)
	if _, err := os.Stat(filepath.Join(dir, "complete")); errors.Is(err, fs.ErrNotExist) {
		t0 := time.Now()
		if err := buildInputs(dir, c); err != nil {
			return nil, err
		}
		log.Printf("prepared inputs in %v", time.Since(t0).Round(time.Millisecond))
	} else if err != nil {
		return nil, err
	}
	h, err := hashTree(dir)
	if err != nil {
		return nil, err
	}
	return &inputs{dir: dir, hash: h}, nil
}

func buildInputs(dir string, c config) error {
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	for _, sub := range []string{"small", "large", "large-ivf"} {
		if err := os.MkdirAll(filepath.Join(tmp, sub), 0o755); err != nil {
			return err
		}
	}
	small, err := dataset.Build(imagegen.IMSILike(c.CollectionSeed, c.SmallScale), histogram.DefaultExtractor)
	if err != nil {
		return fmt.Errorf("building small collection: %w", err)
	}
	if err := writeLabels(filepath.Join(tmp, smallLabels), small); err != nil {
		return err
	}
	large, err := dataset.Build(imagegen.IMSILike(c.CollectionSeed, c.LargeScale), histogram.DefaultExtractor)
	if err != nil {
		return fmt.Errorf("building large collection: %w", err)
	}
	if err := store.WriteFBMX(filepath.Join(tmp, largeFBMX), large.Matrix()); err != nil {
		return fmt.Errorf("writing collection: %w", err)
	}
	if err := writeLabels(filepath.Join(tmp, largeLabels), large); err != nil {
		return err
	}
	if err := os.Link(filepath.Join(tmp, largeFBMX), filepath.Join(tmp, largeIVFFBMX)); err != nil {
		return fmt.Errorf("linking collection: %w", err)
	}
	idx, err := ann.Build(large.Matrix(), ann.Options{NList: c.ANN.NList, NProbe: c.ANN.NProbe, Seed: c.ANN.Seed})
	if err != nil {
		return fmt.Errorf("training index: %w", err)
	}
	if err := ann.WriteFBIX(filepath.Join(tmp, largeIVFFBIX), idx); err != nil {
		return fmt.Errorf("writing index: %w", err)
	}
	if err := buildTemplate(tmp, c); err != nil {
		return fmt.Errorf("building durable template: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// writeLabels writes each item's category, the oracle's ground truth;
// FBMX files carry features only.
func writeLabels(path string, ds *dataset.Dataset) error {
	cats := make([]string, ds.Len())
	for i, it := range ds.Items {
		cats[i] = it.Category
	}
	b, err := json.Marshal(cats)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// buildTemplate plays TemplateSessions oracle sessions against the
// learn-durable composition with automatic compaction off, so the
// template's shard journals hold every accepted insert and opening a
// copy replays them.
func buildTemplate(in string, c config) error {
	w, ok := c.Workloads["learn-durable"]
	if !ok {
		return errors.New("config has no learn-durable workload")
	}
	tmpIn := &inputs{dir: in}
	col, err := openCollection(tmpIn, w, c)
	if err != nil {
		return err
	}
	defer col.close()
	codec, err := core.NewHistogramCodec(col.ds.Dim)
	if err != nil {
		return err
	}
	sh, err := shardedbypass.Open(tmpIn.path(durableTmpl), codec.D(), codec.P(), treeConfig(codec),
		shardedbypass.Options{Shards: w.Shards})
	if err != nil {
		return err
	}
	eng, err := engine.New(col.ds, engine.Options{Searcher: col.searcher})
	if err != nil {
		_ = sh.Close()
		return err
	}
	svc, err := service.New(eng, sh, service.Options{DefaultK: c.K})
	if err != nil {
		_ = sh.Close()
		return err
	}
	items := newItemSampler(c.TemplateSeed, streamItems, col.ds.Len(), 0, 0)
	for i := 0; i < c.TemplateSessions; i++ {
		item := items.next()
		if _, err := playSession(context.Background(), svc, col, item, c.K, nil, 0); err != nil {
			_ = sh.Close()
			return err
		}
	}
	return sh.Close()
}

// treeConfig mirrors fbserve's Simplex Tree settings at default flags.
func treeConfig(codec core.HistogramCodec) core.Config {
	return core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()}
}

// hashTree hashes every regular file under dir (path, then content) in
// lexical path order.
func hashTree(dir string) (string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		if err := hashFile(h, p); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// copyTree copies the regular files and directories of src into a new
// directory dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copying %s: not a regular file", p)
		}
		return copyFile(p, target)
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
		_ = out.Close()
		return err
	}
	return out.Close()
}

func readLabels(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cats []string
	if err := json.Unmarshal(b, &cats); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return cats, nil
}
