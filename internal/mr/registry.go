package mr

import (
	"fmt"
	"sort"
	"sync"
)

// JobFactory instantiates a fully-wired Job (splits, map, reduce,
// partitioner) from an opaque parameter blob. TCP workers cannot receive
// Go functions over the wire, so the driver and every such worker construct
// the job through the same registered factory — the moral equivalent of
// shipping the same job JAR to every Hadoop node.
type JobFactory func(params []byte) (*Job, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]JobFactory{}
)

// RegisterJob makes a factory available under a name for cluster
// execution. Registering the same name twice panics (a programming error).
func RegisterJob(name string, f JobFactory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("mr: job %q registered twice", name))
	}
	registry[name] = f
}

// LookupJob instantiates a registered job. The Job remembers (name,
// params): that pair is all a Coordinator ships to a TCP worker, which
// calls LookupJob with it again.
func LookupJob(name string, params []byte) (*Job, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mr: unknown job %q (registered: %v)", name, RegisteredJobs())
	}
	job, err := f(params)
	if err != nil {
		return nil, err
	}
	job.regName, job.regParams = name, params
	return job, nil
}

// HasJob reports whether a job factory is registered under name. Cluster
// drivers use it to fail fast before shipping tasks whose job no worker
// (built from the same binary) could instantiate.
func HasJob(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// RegisteredJobs lists registered job names, sorted.
func RegisteredJobs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
