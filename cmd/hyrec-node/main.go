// Command hyrec-node runs one node of a multi-node HyRec deployment:
// the same web API as hyrec-server, backed by internal/node — every
// node embeds the full partition ring but serves only the partitions
// the published node map assigns it, proxies the rest to their owners,
// streams each owned partition's state to a ring-distinct replica, and
// takes part in heartbeat-driven failover (a dead node's partitions
// promote on their replicas within a few heartbeat periods).
//
// A 3-node cluster is three invocations of the same command with the
// same -peers list and distinct -id/-addr:
//
//	hyrec-node -id n1 -addr :9001 -peers n1=http://127.0.0.1:9001,n2=http://127.0.0.1:9002,n3=http://127.0.0.1:9003
//	hyrec-node -id n2 -addr :9002 -peers n1=http://127.0.0.1:9001,n2=http://127.0.0.1:9002,n3=http://127.0.0.1:9003
//	hyrec-node -id n3 -addr :9003 -peers n1=http://127.0.0.1:9001,n2=http://127.0.0.1:9002,n3=http://127.0.0.1:9003
//
// Every member must run the same -partitions, -k, -r and -seed: the
// design rests on all processes computing identical engines, pseudonym
// spaces and lease lanes, so routing needs no coordination. Clients may
// connect to any node; hyrec/client follows not_primary redirects and
// topology updates automatically.
//
// With -snapshot, the node periodically saves its embedded cluster's
// frames plus a node-map sidecar stamp (state.snap.nodemap). On boot
// the stamp is informational: the node always starts from the static
// membership map and converges to the live cluster's epoch through the
// push/heartbeat protocol.
//
// With -debug-addr, net/http/pprof answers under /debug/pprof/ on that
// separate address only; the public address never serves it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"hyrec/internal/node"
	"hyrec/internal/persist"
	"hyrec/internal/server"
	"hyrec/internal/telemetry"
	"hyrec/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hyrec-node", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":9001", "listen address")
		frame     = fs.String("frame-addr", "", "framed binary transport listen address (empty = disabled); advertise it to peers via the id=url|frameaddr form of -peers")
		id        = fs.String("id", "", "this node's unique ID (must appear in -peers)")
		advertise = fs.String("advertise", "", "base URL peers dial this node on (default: the -peers entry for -id)")
		peers     = fs.String("peers", "", "static membership: comma-separated id=url[|frameaddr] pairs, identical on every node")
		parts     = fs.Int("partitions", 8, "ring partition count (identical on every node)")
		k         = fs.Int("k", 10, "neighborhood size")
		r         = fs.Int("r", 10, "recommendations per job")
		seed      = fs.Int64("seed", 1, "randomness seed (identical on every node)")
		rotate    = fs.Duration("rotate", 0, "anonymous-mapping rotation period (0 disables; if set, set it on every node)")
		leaseTTL  = fs.Duration("lease-ttl", 30*time.Second, "job lease duration; > 0 enables the async scheduler")
		fallback  = fs.Int("fallback-workers", 0, "server-side fallback worker pool size")
		replEvery = fs.Duration("replicate-every", 100*time.Millisecond, "async replication tail period")
		antiEvery = fs.Duration("anti-entropy", 30*time.Second, "full-state replica sync period (<0 disables)")
		hbEvery   = fs.Duration("heartbeat", time.Second, "peer liveness probe period (<0 disables failover)")
		deadAfter = fs.Int("dead-after", 3, "consecutive missed heartbeats before a peer is declared dead")
		peerTO    = fs.Duration("peer-timeout", 5*time.Second, "node-to-node request timeout")
		peerSec   = fs.String("peer-secret", "", "shared secret gating the node plane (/v1/replicate, /v1/nodes); identical on every node, empty leaves it open")
		snapPath  = fs.String("snapshot", "", "snapshot base path for durable state (empty = stateless)")
		snapIvl   = fs.Duration("snapshot-interval", 5*time.Minute, "periodic snapshot period (with -snapshot)")
		grace     = fs.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on shutdown")
		maxRate   = fs.Int("max-inflight-rating", 0, "admission bound on concurrent rating-ingest requests; excess answers 429 overloaded (0 = unlimited)")
		maxWork   = fs.Int("max-inflight-worker", 0, "admission bound on concurrent worker job traffic — parked long-polls, results, acks (0 = unlimited)")
		maxRead   = fs.Int("max-inflight-read", 0, "admission bound on concurrent rec/neighbor reads and user job fetches (0 = unlimited)")
		replCap   = fs.Int("repl-backlog", 0, "per-partition replication backlog cap while a mirror is down; past it one full re-ship replaces the queue (0 = default 8192, negative = unlimited)")
		debug     = fs.String("debug-addr", "", "separate listen address serving net/http/pprof under /debug/pprof/ (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	members, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	if *id == "" {
		return errors.New("-id is required")
	}
	selfAddr := *advertise
	selfFrame := *frame
	for _, m := range members {
		if m.ID == *id {
			if selfAddr == "" {
				selfAddr = m.Addr
			}
			if selfFrame == "" {
				selfFrame = m.FrameAddr
			}
		}
	}
	if selfAddr == "" {
		return fmt.Errorf("node %q not found in -peers and no -advertise given", *id)
	}

	cfg := server.DefaultConfig()
	cfg.K = *k
	cfg.R = *r
	cfg.Seed = *seed
	cfg.LeaseTTL = *leaseTTL
	cfg.FallbackWorkers = *fallback
	cfg.MaxInflightRating = *maxRate
	cfg.MaxInflightWorker = *maxWork
	cfg.MaxInflightRead = *maxRead

	nd, err := node.New(node.Config{
		Self:             node.Member{ID: *id, Addr: selfAddr, FrameAddr: selfFrame},
		Members:          members,
		Partitions:       *parts,
		Engine:           cfg,
		ReplicateEvery:   *replEvery,
		ReplBacklog:      *replCap,
		AntiEntropyEvery: *antiEvery,
		HeartbeatEvery:   *hbEvery,
		DeadAfter:        *deadAfter,
		PeerTimeout:      *peerTO,
		PeerSecret:       *peerSec,
	})
	if err != nil {
		return err
	}

	var saver *persist.Saver
	if *snapPath != "" {
		switch snaps, lerr := persist.LoadClusterAny(*snapPath); {
		case lerr == nil:
			if err := persist.RestoreCluster(nd.Cluster(), snaps); err != nil {
				return fmt.Errorf("restore snapshot: %w", err)
			}
			fmt.Printf("restored %d users from %s.p*\n", nd.Cluster().Len(), *snapPath)
			if stamp, serr := persist.LoadNodeMap(*snapPath); serr == nil {
				fmt.Printf("snapshot was taken under node-map epoch %d\n", stamp.Epoch)
			}
		case errors.Is(lerr, os.ErrNotExist):
			fmt.Printf("no snapshot at %s.p*; starting fresh\n", *snapPath)
		default:
			return fmt.Errorf("load snapshot: %w", lerr)
		}
		base := *snapPath
		saver = persist.NewSaverFunc(func() error {
			if err := persist.SaveCluster(base, nd.Cluster()); err != nil {
				return err
			}
			return persist.SaveNodeMap(base, nd.Map())
		}, *snapIvl, func(err error) {
			log.Printf("snapshot save failed: %v", err)
		})
		saver.Start()
	}

	if *debug != "" {
		dsrv, err := telemetry.ServeDebug(*debug)
		if err != nil {
			return err
		}
		defer dsrv.Close()
	}

	nd.Start()
	srv := server.NewServer(nd, *rotate)
	srv.RequireNodeSecret(*peerSec)
	srv.Start()

	m := nd.Map()
	primaries, replicas := 0, 0
	for _, info := range m.Nodes {
		if info.ID == *id {
			primaries, replicas = len(info.Primary), len(info.Replica)
		}
	}
	fmt.Printf("hyrec-node %s listening on %s (members=%d partitions=%d primary=%d replica=%d epoch=%d frame=%q)\n",
		*id, *addr, len(members), *parts, primaries, replicas, m.Epoch, selfFrame)
	defer nd.Close()
	var final func() error
	if saver != nil {
		final = saver.Close
	}
	return srv.ServeUntilSignal(*addr, selfFrame, *grace, final)
}

// parsePeers parses "id=url,id=url|frameaddr,..." into a membership
// list; the optional |frameaddr suffix advertises a member's framed
// transport listener.
func parsePeers(s string) ([]node.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-peers is required (id=url[|frameaddr] pairs, comma-separated)")
	}
	var out []node.Member
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url[|frameaddr])", pair)
		}
		url, frameAddr, _ := strings.Cut(url, "|")
		if url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url[|frameaddr])", pair)
		}
		out = append(out, node.Member{ID: id, Addr: strings.TrimRight(url, "/"), FrameAddr: frameAddr})
	}
	if len(out) > wire.MaxNodes {
		return nil, fmt.Errorf("%d peers exceeds the %d-node limit", len(out), wire.MaxNodes)
	}
	return out, nil
}
