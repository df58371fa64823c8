//go:build !linux

package main

// Without Linux affinity calls the generator and the servers share all
// CPUs; checkProcfs refuses to measure on such a host anyway.

func partitionCPUs() ([]int, error) { return nil, nil }

func startOn(_ []int, start func() error) error { return start() }
