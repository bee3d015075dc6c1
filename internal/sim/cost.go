package sim

import "time"

// CostModel translates bytes, rows and operations into durations for a
// 2013-era warehouse node (the paper's dw1/dw2 generation: local HDD/SSD
// arrays, 10 GbE networking, S3 object storage). The scale benchmarks use it
// to extrapolate measured per-slice engine rates to the cluster sizes the
// paper reports.
//
// All rates are deliberately conservative, round numbers; EXPERIMENTS.md
// documents the calibration next to each reproduced figure.
type CostModel struct {
	// DiskReadMBps is the sequential scan bandwidth of one node's disk array.
	DiskReadMBps float64
	// DiskWriteMBps is the sequential write bandwidth of one node's array.
	DiskWriteMBps float64
	// NetMBps is node-to-node bandwidth (10 GbE with protocol overhead).
	NetMBps float64
	// S3StreamMBps is the bandwidth of one S3 transfer stream.
	S3StreamMBps float64
	// S3Streams is how many parallel S3 streams a node drives.
	S3Streams int
	// S3GetLatency is the first-byte latency of one S3 GET.
	S3GetLatency time.Duration
	// S3CrossRegionFactor multiplies S3 transfer time for a second region.
	S3CrossRegionFactor float64

	// NodeBootCold is EC2 instance acquisition + AMI boot + engine start.
	NodeBootCold time.Duration
	// NodeBootWarm is attach time for a preconfigured (warm pool) node.
	NodeBootWarm time.Duration
	// ControlPlaneStep is the fixed overhead of one workflow step
	// (SWF-style dispatch, telemetry, leader coordination).
	ControlPlaneStep time.Duration
	// DNSPropagation is endpoint cutover time (Route53-style flip).
	DNSPropagation time.Duration

	// SlicesPerNode is how many slices (cores) each compute node runs.
	SlicesPerNode int
	// SliceLoadRowsPerSec is sustained COPY ingest per slice, including
	// parse, distribute, compress and local sort.
	SliceLoadRowsPerSec float64
	// SliceScanRowsPerSec is compiled-scan throughput per slice for the
	// wide click-log rows of the §1 case study.
	SliceScanRowsPerSec float64
	// SliceJoinRowsPerSec is probe-side hash-join throughput per slice.
	SliceJoinRowsPerSec float64
	// CompressionRatio is the assumed average compression factor.
	CompressionRatio float64
}

// Default2013 returns the calibrated model used throughout EXPERIMENTS.md.
func Default2013() CostModel {
	return CostModel{
		DiskReadMBps:        800, // striped local array
		DiskWriteMBps:       500,
		NetMBps:             1000, // 10 GbE minus overhead
		S3StreamMBps:        40,
		S3Streams:           10,
		S3GetLatency:        30 * time.Millisecond,
		S3CrossRegionFactor: 2.5,
		NodeBootCold:        12 * time.Minute, // EC2 acquire + AMI boot + engine install (§3.1: ~15 min at launch)
		NodeBootWarm:        90 * time.Second, // preconfigured standby attach (§3.1: ~3 min)
		ControlPlaneStep:    5 * time.Second,
		DNSPropagation:      30 * time.Second,
		SlicesPerNode:       8,
		SliceLoadRowsPerSec: 550_000,
		SliceScanRowsPerSec: 6_000_000,
		SliceJoinRowsPerSec: 2_500_000,
		CompressionRatio:    3.0,
	}
}

// mbDuration converts a byte count and a MB/s rate into a duration.
func mbDuration(bytes int64, mbps float64) time.Duration {
	if mbps <= 0 || bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / (mbps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// DiskRead returns the time one node needs to read bytes sequentially.
func (m CostModel) DiskRead(bytes int64) time.Duration {
	return mbDuration(bytes, m.DiskReadMBps)
}

// NetTransfer returns the time to move bytes across one node-to-node link.
func (m CostModel) NetTransfer(bytes int64) time.Duration {
	return mbDuration(bytes, m.NetMBps)
}

// S3NodeBandwidthMBps is the aggregate S3 bandwidth one node can drive.
func (m CostModel) S3NodeBandwidthMBps() float64 {
	return m.S3StreamMBps * float64(m.S3Streams)
}

// S3Upload returns the time one node needs to push bytes to S3 using all of
// its parallel streams.
func (m CostModel) S3Upload(bytes int64) time.Duration {
	return m.S3GetLatency + mbDuration(bytes, m.S3NodeBandwidthMBps())
}

// S3Download returns the time one node needs to pull bytes from S3.
func (m CostModel) S3Download(bytes int64) time.Duration {
	return m.S3GetLatency + mbDuration(bytes, m.S3NodeBandwidthMBps())
}

// S3CrossRegion returns the time to copy bytes to a second region.
func (m CostModel) S3CrossRegion(bytes int64) time.Duration {
	d := m.S3Upload(bytes)
	return time.Duration(float64(d) * m.S3CrossRegionFactor)
}

// RowsDuration converts a row count and per-second rate into a duration.
func RowsDuration(rows int64, rowsPerSec float64) time.Duration {
	if rowsPerSec <= 0 || rows <= 0 {
		return 0
	}
	return time.Duration(float64(rows) / rowsPerSec * float64(time.Second))
}

// Par returns the duration of steps executed in parallel (their maximum),
// the shape of every data-parallel admin operation in §3.2.
func Par(ds ...time.Duration) time.Duration {
	var max time.Duration
	for _, d := range ds {
		if d > max {
			max = d
		}
	}
	return max
}

// Seq returns the duration of steps executed one after another.
func Seq(ds ...time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}
