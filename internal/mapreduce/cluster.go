// Package mapreduce provides the in-memory map-reduce engine and the
// simulated-cluster model on which the centralized KNN baselines run
// (Figure 7: Exhaustive, MahoutSingle, ClusMahout, Offline-CRec).
//
// Computation is real: map and reduce functions execute on the host with
// per-task durations measured. Wall-clock on the paper's clusters is then
// obtained by scheduling the measured tasks onto a Cluster (nodes × cores)
// with Hadoop-style overheads (job startup, per-record serialization) —
// substitution 3 of ARCHITECTURE.md, "Substitutions for the paper's
// testbed". Who-wins orderings come
// from real work; absolute times come from the schedule.
package mapreduce

import (
	"sort"
	"time"
)

// Cluster describes an execution platform for simulated scheduling.
type Cluster struct {
	// Nodes is the number of machines; CoresPerNode the parallel slots per
	// machine.
	Nodes        int
	CoresPerNode int
	// JobStartup is charged once per map-reduce job (Hadoop's JVM spawn,
	// scheduling and HDFS round trips; ~0 for lightweight in-memory
	// engines).
	JobStartup time.Duration
	// PerRecord is the serialization/deserialization overhead charged for
	// every record a task emits or consumes (Hadoop writes intermediate
	// records to disk; in-memory engines pass pointers).
	PerRecord time.Duration
}

// SingleNode4Core is the paper's lightweight single-node platform used by
// Offline-Ideal/Exhaustive and Offline-CRec (Phoenix-style in-memory
// map-reduce [46]).
func SingleNode4Core() Cluster {
	return Cluster{Nodes: 1, CoresPerNode: 4}
}

// HadoopSingleNode models MahoutSingle: one 4-core node under Hadoop, with
// job-startup and per-record costs calibrated to published Hadoop
// small-cluster figures (tens of seconds per job; microseconds per
// record).
func HadoopSingleNode() Cluster {
	return Cluster{Nodes: 1, CoresPerNode: 4, JobStartup: 15 * time.Second, PerRecord: 4 * time.Microsecond}
}

// HadoopTwoNodes models ClusMahout: two 4-core nodes under Hadoop.
func HadoopTwoNodes() Cluster {
	return Cluster{Nodes: 2, CoresPerNode: 4, JobStartup: 15 * time.Second, PerRecord: 4 * time.Microsecond}
}

// TotalCores returns the number of parallel task slots.
func (c Cluster) TotalCores() int {
	n := c.Nodes * c.CoresPerNode
	if n < 1 {
		return 1
	}
	return n
}

// Makespan schedules tasks with the given durations onto the cluster's
// slots using longest-processing-time-first list scheduling (a 4/3
// approximation of optimal, and close to what Hadoop's scheduler achieves
// on independent tasks) and returns the resulting wall-clock span.
func (c Cluster) Makespan(tasks []time.Duration) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	slots := c.TotalCores()
	sorted := make([]time.Duration, len(tasks))
	copy(sorted, tasks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	load := make([]time.Duration, slots)
	for _, d := range sorted {
		// Assign to the least-loaded slot.
		min := 0
		for s := 1; s < slots; s++ {
			if load[s] < load[min] {
				min = s
			}
		}
		load[min] += d
	}
	var max time.Duration
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
