package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bcf/internal/ebpf"
	"bcf/internal/elf"
	"bcf/internal/loader"
	"bcf/internal/proofd"
	"bcf/internal/proofrpc"
)

// workDir holds the benchmark's run files (daemon socket, span dumps),
// relative to the directory the benchmark runs in.
const workDir = ".bench_build"

// env is a set-up workload: its inputs, its proving back end and its
// warm caches.
type env struct {
	s  spec
	in *inputs

	cache *loader.ProofCache // cacheShared

	srv       *proofd.Server // cacheRemote
	serveDone chan error
	client    *proofrpc.Client
	sockDir   string
}

// setUp generates the inputs, starts the daemon of the remote workload
// and runs the untimed warm-up. All of it is what setup_s measures.
func setUp(s spec, seed uint64) (*env, error) {
	in, err := generate(s, seed)
	if err != nil {
		return nil, err
	}
	e := &env{s: s, in: in}
	switch s.cache {
	case cacheShared:
		e.cache = loader.NewProofCache()
	case cacheRemote:
		if err := e.startDaemon(); err != nil {
			return nil, err
		}
	}
	// One untimed pass fills the caches and brings the heap and
	// goroutine stacks to their steady size.
	var (
		mu      sync.Mutex
		failure error
	)
	forEach(s.clients, in.passLen, func(i int) {
		r := in.at(i)
		v, err := e.load(r)
		if err == nil {
			err = check(s, r.lab, v)
		}
		if err != nil {
			mu.Lock()
			failure = errors.Join(failure, fmt.Errorf("warm-up %s: %w", r.name, err))
			mu.Unlock()
		}
	})
	if failure != nil {
		e.close()
		return nil, failure
	}
	return e, nil
}

func (e *env) startDaemon() error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", workDir, err)
	}
	dir, err := os.MkdirTemp(workDir, "sock")
	if err != nil {
		return fmt.Errorf("socket dir: %w", err)
	}
	sock := filepath.Join(dir, "proofd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("listen %s: %w", sock, err)
	}
	e.sockDir = dir
	e.srv = proofd.New(proofd.Options{})
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(l) }()
	e.client = proofrpc.NewClient(proofrpc.ClientOptions{Network: "unix", Addr: sock})
	return nil
}

// close stops the daemon and waits for it to exit.
func (e *env) close() {
	if e.srv == nil {
		return
	}
	e.client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", err)
	}
	if err := <-e.serveDone; err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon: %v\n", err)
	}
	os.RemoveAll(e.sockDir)
	e.srv = nil
}

// options returns one load's loader options with the workload's proving
// back end.
func (e *env) options() loader.Options {
	opts := loadOptions(e.s)
	switch e.s.cache {
	case cacheShared:
		opts.ProofCache = e.cache
	case cacheFresh:
		opts.ProofCache = loader.NewProofCache()
	case cacheRemote:
		opts.Remote = e.client
		opts.RemoteOnly = true
	}
	return opts
}

// program returns the program a request loads, parsing its ELF bytes.
func program(r *request) (*ebpf.Program, error) {
	if r.obj == nil {
		return r.prog, nil
	}
	obj, err := elf.ParseObject(r.obj)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", r.name, err)
	}
	if len(obj.Programs) != 1 {
		return nil, fmt.Errorf("parse %s: %d programs, want 1", r.name, len(obj.Programs))
	}
	return obj.Programs[0], nil
}

// load is one untraced load: elf.ParseObject (ELF workloads), then
// loader.Load.
func (e *env) load(r *request) (verdict, error) {
	prog, err := program(r)
	if err != nil {
		return verdict{}, err
	}
	return verdictOf(loader.Load(prog, e.options())), nil
}

// forEach calls fn for i in [0, n) from workers goroutines.
func forEach(workers, n int, fn func(i int)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
