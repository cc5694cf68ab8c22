/**
 * @file
 * Table I reproduction: print the simulated GPU's parameters.
 */

#include <cstdio>

#include "bench_common.hh"
#include "gpu/gpu_config.hh"

using namespace libra;
using namespace libra::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(
        argc, argv, {}, {});
    (void)opt;

    const GpuConfig base = GpuConfig::baseline(8);
    const GpuConfig lib = GpuConfig::libra(2, 4);

    banner("Table I: GPU simulation parameters");

    Table global({"parameter", "value"});
    global.addRow({"Clock", "800 MHz (1 tick = 1 cycle)"});
    global.addRow({"Screen resolution",
                   std::to_string(base.screenWidth) + "x"
                       + std::to_string(base.screenHeight)});
    global.addRow({"Tile size", std::to_string(base.tileSize) + "x"
                                    + std::to_string(base.tileSize)
                                    + " pixels"});
    global.addRow({"Tiles per frame",
                   std::to_string(base.tileCount())});
    printTable(global, opt);

    banner("Main memory (LPDDR4 model)");
    Table dram({"parameter", "value"});
    const DramConfig &d = base.dram;
    dram.addRow({"Channels", std::to_string(d.channels)});
    dram.addRow({"Banks/channel", std::to_string(d.banksPerChannel)});
    dram.addRow({"Row size", std::to_string(d.rowBytes) + " B"});
    dram.addRow({"tRCD/tRP/tCAS (GPU cycles)",
                 std::to_string(d.tRcd) + "/" + std::to_string(d.tRp)
                     + "/" + std::to_string(d.tCas)});
    dram.addRow({"Burst (64B)", std::to_string(d.tBurst) + " cycles"});
    const std::string unloaded =
        std::to_string(d.ctrlLatency + d.tRcd + d.tCas + d.tBurst);
    dram.addRow({"Unloaded latency",
                 "~" + unloaded + " cycles (paper: 50-100)"});
    dram.addRow({"Scheduler", "FR-FCFS, read priority, write drain"});
    printTable(dram, opt);

    banner("Caches");
    Table caches({"cache", "size", "ways", "line", "latency"});
    auto cache_row = [&](const CacheConfig &c) {
        caches.addRow({c.name, std::to_string(c.sizeBytes / 1024) + " KB",
                       std::to_string(c.ways), "64 B",
                       std::to_string(c.hitLatency) + " cycles"});
    };
    cache_row(base.vertexCache);
    cache_row(base.tileCache);
    cache_row(base.textureCache);
    cache_row(base.l2);
    printTable(caches, opt);

    banner("Raster organization");
    Table org({"config", "raster units", "cores/RU", "warps/core"});
    org.addRow({"Baseline", std::to_string(base.rasterUnits),
                std::to_string(base.coresPerRu),
                std::to_string(base.warpsPerCore)});
    org.addRow({"LIBRA", std::to_string(lib.rasterUnits),
                std::to_string(lib.coresPerRu),
                std::to_string(lib.warpsPerCore)});
    printTable(org, opt);

    banner("LIBRA scheduler defaults");
    Table sched({"parameter", "value"});
    const SchedulerConfig &s = lib.sched;
    sched.addRow({"Hit-ratio threshold", Table::pct(s.hitRatioThreshold, 0)});
    sched.addRow({"Order-switch threshold",
                  Table::pct(s.orderSwitchThreshold, 0)});
    sched.addRow({"Supertile resize threshold",
                  Table::pct(s.resizeThreshold)});
    sched.addRow({"Supertile sizes",
                  std::to_string(s.minSupertileSize) + "x"
                      + std::to_string(s.minSupertileSize) + " .. "
                      + std::to_string(s.maxSupertileSize) + "x"
                      + std::to_string(s.maxSupertileSize)});
    printTable(sched, opt);
    return 0;
}
