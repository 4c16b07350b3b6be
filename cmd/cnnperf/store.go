package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cnnperf"
	"cnnperf/internal/artifactstore"
	"cnnperf/internal/core"
)

// runStore dispatches the artifact-store subcommand family:
//
//	cnnperf store warm   -dir DIR [-models a,b,...]  precompute artifacts into a store
//	cnnperf store export -dir DIR -out FILE          pack a store into one snapshot file
//	cnnperf store import -dir DIR -in FILE           unpack a snapshot into a store
//	cnnperf store verify [-dir DIR] [-in FILE]       check every record's integrity
//	cnnperf store gc     -dir DIR                    compact each namespace log, remove torn
//	                                                 tails, the old layout's shard directories
//	                                                 and namespaces without a codec
//
// export, import and gc keep only the namespaces core.NewArtifactTier
// has a codec for; records older builds wrote elsewhere are never read.
//
// A warmed store (or its exported snapshot) is what lets cnnperfd boot
// warm: `cnnperfd -store DIR` or `cnnperfd -snapshot FILE` serves its
// first prediction from persisted artifacts instead of recomputing the
// training pipeline.
func runStore(ctx context.Context, args []string, cfg cnnperf.Config) error {
	if len(args) < 1 {
		return fmt.Errorf("store needs a subcommand: warm, export, import, verify or gc")
	}
	switch args[0] {
	case "warm":
		return runStoreWarm(ctx, args[1:], cfg)
	case "export":
		return runStoreExport(ctx, args[1:])
	case "import":
		return runStoreImport(ctx, args[1:])
	case "verify":
		return runStoreVerify(ctx, args[1:])
	case "gc":
		return runStoreGC(ctx, args[1:])
	default:
		return fmt.Errorf("store: unknown subcommand %q (want warm, export, import, verify or gc)", args[0])
	}
}

// openTier opens the store at dir and wraps it in the full codec tier.
func openTier(dir string) (*artifactstore.Store, *artifactstore.Tier, error) {
	store, err := artifactstore.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	tier, err := core.NewArtifactTier(store)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, tier, nil
}

// codecNamespaces lists the store namespaces this build reads.
func codecNamespaces() ([]string, error) {
	tier, err := core.NewArtifactTier(nil)
	if err != nil {
		return nil, err
	}
	return tier.Namespaces(), nil
}

// runStoreWarm computes the artifacts cnnperfd needs at boot — the
// leave-one-out estimators and per-model analyses — with the disk tier
// attached, so everything writes through into the store.
func runStoreWarm(ctx context.Context, args []string, cfg cnnperf.Config) (err error) {
	fs := flag.NewFlagSet("store warm", flag.ContinueOnError)
	dir := fs.String("dir", "", "artifact store directory (required)")
	models := fs.String("models", "", "comma-separated zoo models to warm (default: full-zoo estimator only)")
	workers := fs.Int("workers", 0, "worker pool size for the analyses (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store warm: -dir is required")
	}
	store, tier, err := openTier(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	tier.SetBaseContext(ctx)
	cache := cnnperf.NewAnalysisCache(0)
	cache.SetSecondTier(tier)
	cfg.Cache = cache
	cfg.Workers = *workers

	// The full-zoo estimator backs every raw-PTX prediction; the
	// per-model leave-one-out estimators back zoo-model predictions.
	// Keying through the cache (with the tier attached) is what writes
	// each trained model and every intermediate analysis artifact to disk.
	warm := func(exclude string) error {
		key := core.EstimatorKey(exclude, cfg)
		_, _, err := cache.GetOrCompute(key, func() (any, error) {
			return core.LeaveOneOutEstimatorContext(ctx, exclude, cfg)
		})
		return err
	}
	if err := warm(""); err != nil {
		return err
	}
	fmt.Println("warmed full-zoo estimator")
	var names []string
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			if m = strings.TrimSpace(m); m != "" {
				names = append(names, m)
			}
		}
	}
	for _, m := range names {
		if err := warm(m); err != nil {
			return fmt.Errorf("store warm: model %q: %w", m, err)
		}
		if _, err := core.AnalyzeCNNContext(ctx, m, cfg); err != nil {
			return fmt.Errorf("store warm: model %q: %w", m, err)
		}
		fmt.Printf("warmed %s\n", m)
	}
	st := store.Stats()
	fmt.Printf("store %s: %d records written, %d disk hits\n", *dir, st.Puts, st.Hits)
	return nil
}

func runStoreExport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("store export", flag.ContinueOnError)
	dir := fs.String("dir", "", "artifact store directory (required)")
	out := fs.String("out", "store.snap", "output snapshot file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store export: -dir is required")
	}
	store, err := artifactstore.Open(*dir)
	if err != nil {
		return err
	}
	defer store.Close()
	namespaces, err := codecNamespaces()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	n, err := store.Export(ctx, f, namespaces...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out)
		return err
	}
	fmt.Printf("exported %d records to %s\n", n, *out)
	return nil
}

func runStoreImport(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("store import", flag.ContinueOnError)
	dir := fs.String("dir", "", "artifact store directory (required)")
	in := fs.String("in", "", "snapshot file to import (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *in == "" {
		return fmt.Errorf("store import: -dir and -in are required")
	}
	store, err := artifactstore.Open(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	namespaces, err := codecNamespaces()
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := store.Import(ctx, f, namespaces...)
	if err != nil {
		return err
	}
	fmt.Printf("imported %d records into %s\n", n, *dir)
	return nil
}

func runStoreVerify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("store verify", flag.ContinueOnError)
	dir := fs.String("dir", "", "artifact store directory to verify")
	in := fs.String("in", "", "snapshot file to verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" && *in == "" {
		return fmt.Errorf("store verify: need -dir and/or -in")
	}
	if *dir != "" {
		store, err := artifactstore.Open(*dir)
		if err != nil {
			return err
		}
		defer store.Close()
		res, err := store.Verify(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("store %s: %d records, %d bytes, %d corrupt (quarantined)\n",
			*dir, res.Records, res.Bytes, res.Corrupt)
		if res.Corrupt > 0 {
			return fmt.Errorf("store verify: %d corrupt records", res.Corrupt)
		}
	}
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := artifactstore.ReadSnapshot(f, func(ns, key string, payload []byte) error { return nil })
		if err != nil {
			return fmt.Errorf("store verify: snapshot %s: %w", *in, err)
		}
		fmt.Printf("snapshot %s: %d records, all checksums valid\n", *in, n)
	}
	return nil
}

func runStoreGC(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("store gc", flag.ContinueOnError)
	dir := fs.String("dir", "", "artifact store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store gc: -dir is required")
	}
	store, err := artifactstore.Open(*dir)
	if err != nil {
		return err
	}
	defer store.Close()
	namespaces, err := codecNamespaces()
	if err != nil {
		return err
	}
	res, err := store.GC(ctx, namespaces...)
	if err != nil {
		return err
	}
	fmt.Printf("store %s: removed %d stale records and files and %d namespace(s) without a codec",
		*dir, res.Removed, len(res.Namespaces))
	if len(res.Namespaces) > 0 {
		fmt.Printf(": %s", strings.Join(res.Namespaces, ", "))
	}
	fmt.Println()
	return nil
}
