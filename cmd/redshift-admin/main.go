// Command redshift-admin exercises the control plane the way the console
// does: it runs the admin workflows (provision, connect, backup, restore,
// resize, patch, replace-node) against the fleet cost model on a simulated
// clock and prints what the customer would wait — the generator behind
// Figure 2's "time to deploy and manage a cluster".
//
// Usage:
//
//	redshift-admin provision -nodes 16 [-warm]
//	redshift-admin backup -nodes 16 -changed-gb 400
//	redshift-admin restore -nodes 16 -total-tb 2 [-streaming] [-working-set 0.05]
//	redshift-admin resize -from 2 -to 16 -total-tb 1
//	redshift-admin patch -nodes 16
//	redshift-admin replace-node -node-gb 500 [-warm]
//	redshift-admin figure2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"redshift/internal/bench"
	"redshift/internal/controlplane"
	"redshift/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "provision":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		nodes := fs.Int("nodes", 2, "cluster size")
		warm := fs.Bool("warm", false, "use preconfigured nodes")
		fs.Parse(args)
		report("provision", run(func(o *controlplane.Ops) error {
			_, err := o.Provision(*nodes, *warm)
			return err
		}))
	case "connect":
		report("connect", run(func(o *controlplane.Ops) error {
			_, err := o.Connect()
			return err
		}))
	case "backup":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		nodes := fs.Int("nodes", 2, "cluster size")
		changed := fs.Float64("changed-gb", 100, "changed data in GB")
		fs.Parse(args)
		report("backup", run(func(o *controlplane.Ops) error {
			_, err := o.Backup(*nodes, int64(*changed*1e9))
			return err
		}))
	case "restore":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		nodes := fs.Int("nodes", 2, "cluster size")
		total := fs.Float64("total-tb", 1, "total data in TB")
		streaming := fs.Bool("streaming", false, "streaming restore")
		ws := fs.Float64("working-set", 0.05, "working set fraction")
		fs.Parse(args)
		report("restore", run(func(o *controlplane.Ops) error {
			_, err := o.Restore(*nodes, int64(*total*1e12), *streaming, *ws)
			return err
		}))
	case "resize":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		from := fs.Int("from", 2, "source nodes")
		to := fs.Int("to", 16, "target nodes")
		total := fs.Float64("total-tb", 1, "total data in TB")
		fs.Parse(args)
		report("resize", run(func(o *controlplane.Ops) error {
			_, err := o.Resize(*from, *to, int64(*total*1e12))
			return err
		}))
	case "patch":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		nodes := fs.Int("nodes", 2, "cluster size")
		fs.Parse(args)
		report("patch", run(func(o *controlplane.Ops) error {
			_, err := o.Patch(*nodes, func() bool { return true })
			return err
		}))
	case "replace-node":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		gb := fs.Float64("node-gb", 200, "data on the failed node in GB")
		warm := fs.Bool("warm", true, "use a preconfigured standby")
		fs.Parse(args)
		report("replace-node", run(func(o *controlplane.Ops) error {
			if !*warm {
				o.Warm = nil
			}
			_, err := o.ReplaceNode(int64(*gb * 1e9))
			return err
		}))
	case "figure2":
		fmt.Print(bench.Figure2())
	default:
		usage()
	}
}

// run executes one workflow in virtual time and returns its duration.
func run(fn func(o *controlplane.Ops) error) time.Duration {
	var err error
	d := sim.Elapse(func(c *sim.VClock) {
		o := controlplane.NewOps(c, sim.Default2013(), controlplane.NewWarmPool(1000))
		err = fn(o)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "workflow failed: %v\n", err)
		os.Exit(1)
	}
	return d
}

func report(name string, d time.Duration) {
	fmt.Printf("%-14s %s (simulated wall-clock the customer waits)\n", name, d.Round(time.Second))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: redshift-admin <provision|connect|backup|restore|resize|patch|replace-node|figure2> [flags]`)
	os.Exit(2)
}
