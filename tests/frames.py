"""One frame of a simulated event as the scalar ``FrameState`` the per-frame oracles take."""

from riskdecode.scenarios import EventTrajectory, FrameState, VehicleState, VehicleTrack


def vehicle_state(track: VehicleTrack, k: int) -> VehicleState:
    return VehicleState(track.x[k], track.y[k], track.vx[k], track.vy[k],
                        track.ax[k], track.ay[k], track.length, track.width)


def frame_at(trajectory: EventTrajectory, k: int) -> FrameState:
    return FrameState(vehicle_state(trajectory.subject, k),
                      tuple(vehicle_state(n, k) for n in trajectory.neighbours))
