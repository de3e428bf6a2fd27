/**
 * @file
 * Tests for GPU-utilization computation (aggregate packet ratio,
 * busy union, overlap detection).
 */

#include <gtest/gtest.h>

#include "analysis/gpu_util.hh"
#include "analysis/session.hh"
#include "sim/logging.hh"

namespace {

using namespace deskpar::analysis;
using deskpar::trace::GpuEngineId;
using deskpar::trace::GpuPacketEvent;
using deskpar::trace::TraceBundle;

GpuPacketEvent
packet(deskpar::sim::SimTime start, deskpar::sim::SimTime finish,
       deskpar::trace::Pid pid,
       GpuEngineId engine = GpuEngineId::Graphics3D)
{
    GpuPacketEvent e;
    e.start = start;
    e.finish = finish;
    e.pid = pid;
    e.engine = engine;
    return e;
}

TraceBundle
windowBundle(deskpar::sim::SimTime stop)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = stop;
    bundle.numLogicalCpus = 12;
    return bundle;
}

TEST(GpuUtil, NoPacketsZeroUtil)
{
    TraceBundle bundle = windowBundle(1000);
    auto util = Session(bundle).gpuUtil({});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.0);
    EXPECT_DOUBLE_EQ(util.busyRatio, 0.0);
    EXPECT_DOUBLE_EQ(util.utilizationPercent(), 0.0);
    EXPECT_FALSE(util.overlapped);
    EXPECT_EQ(util.packetCount, 0u);
}

TEST(GpuUtil, SinglePacketRatio)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(100, 350, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.25);
    EXPECT_DOUBLE_EQ(util.busyRatio, 0.25);
    EXPECT_DOUBLE_EQ(util.utilizationPercent(), 25.0);
    EXPECT_FALSE(util.overlapped);
}

TEST(GpuUtil, DisjointPacketsAccumulate)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(0, 100, 5));
    bundle.gpuPackets.push_back(packet(200, 400, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.3);
    EXPECT_DOUBLE_EQ(util.busyRatio, 0.3);
}

TEST(GpuUtil, OverlapDetectedAndCapped)
{
    // Two full-window packets on different queue slots: aggregate 2.0
    // (the paper's PhoenixMiner case), reported as 100% + flag.
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(
        packet(0, 1000, 5, GpuEngineId::Compute));
    bundle.gpuPackets.push_back(
        packet(0, 1000, 5, GpuEngineId::Compute));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 2.0);
    EXPECT_DOUBLE_EQ(util.busyRatio, 1.0);
    EXPECT_DOUBLE_EQ(util.utilizationPercent(), 100.0);
    EXPECT_TRUE(util.overlapped);
}

TEST(GpuUtil, PacketsClampedToWindow)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(900, 1500, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.1);
}

TEST(GpuUtil, PacketsOutsideWindowIgnored)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(2000, 2500, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_EQ(util.packetCount, 0u);
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.0);
}

TEST(GpuUtil, FiltersByPid)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(0, 500, 5));
    bundle.gpuPackets.push_back(packet(0, 500, 9));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.5);
    auto all = Session(bundle).gpuUtil({});
    EXPECT_DOUBLE_EQ(all.aggregateRatio, 1.0);
}

TEST(GpuUtil, PerEngineBreakdown)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(
        packet(0, 200, 5, GpuEngineId::Graphics3D));
    bundle.gpuPackets.push_back(
        packet(0, 300, 5, GpuEngineId::VideoDecode));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(
        util.perEngine[static_cast<unsigned>(
            GpuEngineId::Graphics3D)],
        0.2);
    EXPECT_DOUBLE_EQ(
        util.perEngine[static_cast<unsigned>(
            GpuEngineId::VideoDecode)],
        0.3);
    EXPECT_DOUBLE_EQ(
        util.perEngine[static_cast<unsigned>(GpuEngineId::Compute)],
        0.0);
}

TEST(GpuUtil, SubWindow)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(0, 600, 5));
    auto util = Session(bundle).gpuUtil({5}, 400, 800);
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.5);
}

TEST(GpuUtil, EmptyWindowFatal)
{
    TraceBundle bundle = windowBundle(1000);
    EXPECT_THROW(Session(bundle).gpuUtil({}, 50, 50),
                 deskpar::FatalError);
}

} // namespace
