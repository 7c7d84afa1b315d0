// Fixture: known-bad — direct cross-strip access. Member calls on
// kernel() (via . and ->) and set_scheduling_shard() overrides fire;
// the free-function declarations and the ::-qualified out-of-line
// definition below are negatives and must stay clean.
struct Sim;
void probe(Sim& sim, Sim* world) {
  sim.kernel(2);
  world->kernel(0);
  sim.set_scheduling_shard(3);
}
int kernel(int shard);
int shard_of(int node);
struct Simulator {};
int Simulator::kernel(int shard) { return shard; }
